//! A bounded, structured event journal.

use argus_sim::SimClock;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

/// One typed event, mirroring the milestones of the thesis's algorithms.
///
/// Variants carry only small scalar fields so pushing an event is cheap and
/// the ring buffer stays bounded in memory, not just in length.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// A log entry was appended to the volatile buffer (§3.2 `write`).
    EntryWritten {
        /// Entry kind, e.g. `"data"`, `"prepared"`.
        kind: &'static str,
        /// Payload bytes.
        bytes: u64,
    },
    /// An outcome entry was chained onto the backward outcome-entry chain
    /// (§4.2).
    OutcomeChained {
        /// Outcome kind, e.g. `"prepared"`, `"committed"`.
        kind: &'static str,
        /// Log address of the previous outcome entry, if any.
        prev: Option<u64>,
    },
    /// A force completed: buffered entries became stable (§3.2 `force`).
    ForceCompleted {
        /// Entries published by this force.
        entries: u64,
        /// Total stable bytes after the force.
        stable_bytes: u64,
    },
    /// A log was opened: restart found its durable top by scanning forward
    /// from the superblock and began the next epoch there.
    LogOpened {
        /// The epoch the log now writes in.
        epoch: u64,
        /// The tail the superblock named — where the scan started.
        published_tail: u64,
        /// The tail at the last intact end-of-force mark — the durable log.
        recovered_tail: u64,
        /// Intact frames beyond it (flushed, or of a torn force), dropped.
        discarded_bytes: u64,
    },
    /// One full recovery pass finished (§3.4 / §4.3).
    RecoveryPass {
        /// Log entries examined.
        entries_examined: u64,
        /// Data entries whose payloads were read.
        data_entries_read: u64,
        /// Backward outcome-chain hops followed.
        chain_hops: u64,
        /// Participant-table entries reconstructed.
        pt_size: u64,
        /// Object-table entries reconstructed.
        ot_size: u64,
        /// Coordinator-table entries reconstructed.
        ct_size: u64,
    },
    /// Housekeeping stage one took a snapshot of the stable state (§5.2).
    SnapshotTaken {
        /// Entries written to the new log.
        entries: u64,
        /// Bytes written to the new log.
        bytes: u64,
    },
    /// Housekeeping stage one compacted the old log (§5.1).
    CompactionPass {
        /// Stable entries on the old log when the pass started.
        entries_in: u64,
        /// Entries copied to the new log by stage one.
        entries_out: u64,
    },
    /// A housekeeping pass finished and the new log supplanted the old.
    HousekeepingDone {
        /// `"compaction"` or `"snapshot"`.
        mode: &'static str,
        /// Stable entries reclaimed by the switch.
        entries_reclaimed: u64,
    },
    /// An injected fault fired and crashed the node (`FaultPlan`).
    CrashFired {
        /// Total crashes fired by this plan so far.
        crash_count: u64,
    },
    /// A mirrored-disk read fell back to the good copy and repaired the bad
    /// one (Lampson–Sturgis §2.1).
    MirrorRepair {
        /// Page number repaired.
        page: u64,
    },
    /// The lock manager granted a lock to a waiter (or immediately).
    LockGranted {
        /// `"shared"` or `"exclusive"`.
        mode: &'static str,
        /// How long the action waited in the queue, microseconds.
        waited_us: u64,
    },
    /// An action parked behind an incompatible holder.
    LockBlocked {
        /// `"shared"` or `"exclusive"` — the mode being requested.
        mode: &'static str,
        /// Sequence number of the holding action, when one is known.
        holder_seq: Option<u64>,
    },
    /// Deadlock detection chose this action as the victim (wait-for cycle).
    DeadlockVictim {
        /// Sequence number of the aborted action.
        victim_seq: u64,
        /// Length of the wait-for cycle broken.
        cycle_len: u64,
    },
    /// A 2PC coordinator sent its prepare round.
    PrepareSent {
        /// Participants addressed.
        participants: u64,
    },
    /// A 2PC participant sent its vote.
    VoteSent {
        /// `true` = prepare-ok, `false` = refused.
        ok: bool,
    },
    /// A 2PC coordinator sent its verdict to the participants.
    OutcomeSent {
        /// The verdict.
        committed: bool,
        /// Participants addressed.
        participants: u64,
    },
}

impl Event {
    /// Short machine-readable event name.
    pub fn name(&self) -> &'static str {
        match self {
            Event::EntryWritten { .. } => "entry_written",
            Event::OutcomeChained { .. } => "outcome_chained",
            Event::ForceCompleted { .. } => "force_completed",
            Event::LogOpened { .. } => "log_opened",
            Event::RecoveryPass { .. } => "recovery_pass",
            Event::SnapshotTaken { .. } => "snapshot_taken",
            Event::CompactionPass { .. } => "compaction_pass",
            Event::HousekeepingDone { .. } => "housekeeping_done",
            Event::CrashFired { .. } => "crash_fired",
            Event::MirrorRepair { .. } => "mirror_repair",
            Event::LockGranted { .. } => "lock_granted",
            Event::LockBlocked { .. } => "lock_blocked",
            Event::DeadlockVictim { .. } => "deadlock_victim",
            Event::PrepareSent { .. } => "prepare_sent",
            Event::VoteSent { .. } => "vote_sent",
            Event::OutcomeSent { .. } => "outcome_sent",
        }
    }

    /// Field names and rendered values, for the text and JSON exporters.
    pub fn fields(&self) -> Vec<(&'static str, String)> {
        match self {
            Event::EntryWritten { kind, bytes } => {
                vec![("kind", (*kind).to_string()), ("bytes", bytes.to_string())]
            }
            Event::OutcomeChained { kind, prev } => vec![
                ("kind", (*kind).to_string()),
                (
                    "prev",
                    prev.map(|p| p.to_string()).unwrap_or_else(|| "-".into()),
                ),
            ],
            Event::ForceCompleted {
                entries,
                stable_bytes,
            } => vec![
                ("entries", entries.to_string()),
                ("stable_bytes", stable_bytes.to_string()),
            ],
            Event::LogOpened {
                epoch,
                published_tail,
                recovered_tail,
                discarded_bytes,
            } => vec![
                ("epoch", epoch.to_string()),
                ("published_tail", published_tail.to_string()),
                ("recovered_tail", recovered_tail.to_string()),
                ("discarded_bytes", discarded_bytes.to_string()),
            ],
            Event::RecoveryPass {
                entries_examined,
                data_entries_read,
                chain_hops,
                pt_size,
                ot_size,
                ct_size,
            } => vec![
                ("entries_examined", entries_examined.to_string()),
                ("data_entries_read", data_entries_read.to_string()),
                ("chain_hops", chain_hops.to_string()),
                ("pt_size", pt_size.to_string()),
                ("ot_size", ot_size.to_string()),
                ("ct_size", ct_size.to_string()),
            ],
            Event::SnapshotTaken { entries, bytes } => vec![
                ("entries", entries.to_string()),
                ("bytes", bytes.to_string()),
            ],
            Event::CompactionPass {
                entries_in,
                entries_out,
            } => vec![
                ("entries_in", entries_in.to_string()),
                ("entries_out", entries_out.to_string()),
            ],
            Event::HousekeepingDone {
                mode,
                entries_reclaimed,
            } => vec![
                ("mode", (*mode).to_string()),
                ("entries_reclaimed", entries_reclaimed.to_string()),
            ],
            Event::CrashFired { crash_count } => {
                vec![("crash_count", crash_count.to_string())]
            }
            Event::MirrorRepair { page } => vec![("page", page.to_string())],
            Event::LockGranted { mode, waited_us } => vec![
                ("mode", (*mode).to_string()),
                ("waited_us", waited_us.to_string()),
            ],
            Event::LockBlocked { mode, holder_seq } => vec![
                ("mode", (*mode).to_string()),
                (
                    "holder_seq",
                    holder_seq
                        .map(|s| s.to_string())
                        .unwrap_or_else(|| "-".into()),
                ),
            ],
            Event::DeadlockVictim {
                victim_seq,
                cycle_len,
            } => vec![
                ("victim_seq", victim_seq.to_string()),
                ("cycle_len", cycle_len.to_string()),
            ],
            Event::PrepareSent { participants } => {
                vec![("participants", participants.to_string())]
            }
            Event::VoteSent { ok } => vec![("ok", ok.to_string())],
            Event::OutcomeSent {
                committed,
                participants,
            } => vec![
                ("committed", committed.to_string()),
                ("participants", participants.to_string()),
            ],
        }
    }
}

/// An [`Event`] stamped with the simulated time and a monotonic sequence
/// number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventRecord {
    /// Simulated microseconds when the event was recorded.
    pub at_us: u64,
    /// Journal-wide monotonic sequence number (counts evicted events too).
    pub seq: u64,
    /// The event.
    pub event: Event,
}

#[derive(Debug)]
struct JournalInner {
    cap: usize,
    next_seq: u64,
    dropped: u64,
    events: VecDeque<EventRecord>,
    /// The clock [`Journal::record`] stamps against — the registry's
    /// clock. It lives under the ring's lock so stamping and appending
    /// take one lock, not two.
    clock: SimClock,
}

impl JournalInner {
    fn push(&mut self, at_us: u64, event: Event) {
        let seq = self.next_seq;
        self.next_seq += 1;
        if self.events.len() == self.cap {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(EventRecord { at_us, seq, event });
    }
}

/// A bounded ring buffer of [`EventRecord`]s.
///
/// When full, pushing evicts the oldest record; `dropped()` reports how many
/// were lost, so a report can say "last N of M events" honestly.
///
/// # Examples
///
/// ```
/// use argus_obs::{Event, Journal};
///
/// let j = Journal::new(2);
/// j.push(10, Event::MirrorRepair { page: 512 });
/// j.push(20, Event::MirrorRepair { page: 1024 });
/// j.push(30, Event::MirrorRepair { page: 2048 });
/// let events = j.snapshot();
/// assert_eq!(events.len(), 2);
/// assert_eq!(events[0].at_us, 20); // the oldest was evicted
/// assert_eq!(j.dropped(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct Journal {
    inner: Arc<Mutex<JournalInner>>,
}

impl Journal {
    /// Creates a journal holding at most `cap` events, on its own clock.
    pub fn new(cap: usize) -> Self {
        Self::with_clock(cap, SimClock::new())
    }

    /// Creates a journal whose [`Journal::record`] stamps against `clock`.
    pub(crate) fn with_clock(cap: usize, clock: SimClock) -> Self {
        Self {
            inner: Arc::new(Mutex::new(JournalInner {
                cap: cap.max(1),
                next_seq: 0,
                dropped: 0,
                events: VecDeque::new(),
                clock,
            })),
        }
    }

    /// A handle to the clock [`Journal::record`] stamps against.
    pub(crate) fn clock(&self) -> SimClock {
        self.inner.lock().unwrap().clock.clone()
    }

    /// Replaces the clock [`Journal::record`] stamps against.
    pub(crate) fn set_clock(&self, clock: SimClock) {
        self.inner.lock().unwrap().clock = clock;
    }

    /// Appends an event stamped `at_us`, evicting the oldest when full.
    pub fn push(&self, at_us: u64, event: Event) {
        self.inner.lock().unwrap().push(at_us, event);
    }

    /// Appends an event stamped with the journal's clock.
    pub fn record(&self, event: Event) {
        let mut inner = self.inner.lock().unwrap();
        let at_us = inner.clock.now();
        inner.push(at_us, event);
    }

    /// Copies out the retained events, oldest first.
    pub fn snapshot(&self) -> Vec<EventRecord> {
        self.inner.lock().unwrap().events.iter().cloned().collect()
    }

    /// Number of events currently retained.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().events.len()
    }

    /// Whether the journal holds no events.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.inner.lock().unwrap().dropped
    }

    /// Total events ever pushed (retained + dropped).
    pub fn total(&self) -> u64 {
        self.inner.lock().unwrap().next_seq
    }

    /// Clears the journal and its counters.
    pub fn reset(&self) {
        let mut inner = self.inner.lock().unwrap();
        inner.events.clear();
        inner.next_seq = 0;
        inner.dropped = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retains_in_order_under_capacity() {
        let j = Journal::new(8);
        j.push(1, Event::MirrorRepair { page: 1 });
        j.push(2, Event::MirrorRepair { page: 2 });
        let events = j.snapshot();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].seq, 0);
        assert_eq!(events[1].seq, 1);
        assert_eq!(j.dropped(), 0);
        assert_eq!(j.total(), 2);
    }

    #[test]
    fn eviction_keeps_the_newest() {
        let j = Journal::new(3);
        for i in 0..10u64 {
            j.push(i, Event::MirrorRepair { page: i });
        }
        let events = j.snapshot();
        assert_eq!(events.len(), 3);
        assert_eq!(
            events.iter().map(|e| e.at_us).collect::<Vec<_>>(),
            vec![7, 8, 9]
        );
        assert_eq!(j.dropped(), 7);
        assert_eq!(j.total(), 10);
    }

    #[test]
    fn every_event_renders_name_and_fields() {
        let all = [
            Event::EntryWritten {
                kind: "data",
                bytes: 8,
            },
            Event::OutcomeChained {
                kind: "prepared",
                prev: Some(512),
            },
            Event::OutcomeChained {
                kind: "committed",
                prev: None,
            },
            Event::ForceCompleted {
                entries: 1,
                stable_bytes: 64,
            },
            Event::RecoveryPass {
                entries_examined: 4,
                data_entries_read: 3,
                chain_hops: 4,
                pt_size: 2,
                ot_size: 3,
                ct_size: 0,
            },
            Event::SnapshotTaken {
                entries: 5,
                bytes: 400,
            },
            Event::CompactionPass {
                entries_in: 9,
                entries_out: 4,
            },
            Event::HousekeepingDone {
                mode: "snapshot",
                entries_reclaimed: 5,
            },
            Event::CrashFired { crash_count: 1 },
            Event::MirrorRepair { page: 7 },
            Event::LockGranted {
                mode: "shared",
                waited_us: 120,
            },
            Event::LockBlocked {
                mode: "exclusive",
                holder_seq: Some(3),
            },
            Event::LockBlocked {
                mode: "exclusive",
                holder_seq: None,
            },
            Event::DeadlockVictim {
                victim_seq: 4,
                cycle_len: 2,
            },
            Event::PrepareSent { participants: 2 },
            Event::VoteSent { ok: true },
            Event::VoteSent { ok: false },
            Event::OutcomeSent {
                committed: true,
                participants: 2,
            },
        ];
        for e in all {
            assert!(!e.name().is_empty());
            assert!(!e.fields().is_empty(), "{} has no fields", e.name());
        }
    }

    #[test]
    fn reset_restarts_sequence_numbers() {
        let j = Journal::new(2);
        j.push(0, Event::MirrorRepair { page: 0 });
        j.reset();
        assert!(j.is_empty());
        j.push(5, Event::MirrorRepair { page: 5 });
        assert_eq!(j.snapshot()[0].seq, 0);
    }
}
