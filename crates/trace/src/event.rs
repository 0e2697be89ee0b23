//! The trace event model, in the form analysis reads.
//!
//! The recorder keeps events encoded (see [`crate::Tracer`]) and decodes
//! them into [`TraceEvent`]s: a [`Kind`] from the static catalogue, a
//! phase, a timestamp, a lane, an optional action key and up to two
//! integer arguments. Every field is a plain value, so a trace is a
//! deterministic function of the schedule that produced it.

use crate::kind::Kind;

/// A guardian lane. Guardians are numbered from zero by the world; the
/// reserved [`STORE_LANE`] collects storage-device events recorded below
/// the guardian layer (the page cache does not know which guardian owns
/// it).
pub type Gid = u32;

/// The lane for storage-device events not attributable to a guardian.
pub const STORE_LANE: Gid = u32::MAX;

/// The `(guardian, action)` key: which top-level action an event belongs
/// to. Mirrors `argus_objects::ActionId` without depending on it, so every
/// crate in the workspace can record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Key {
    /// The guardian at which the action originated (its 2PC coordinator).
    pub origin: u32,
    /// Sequence number unique at the origin.
    pub seq: u64,
}

impl Key {
    /// Creates a key.
    pub fn new(origin: u32, seq: u64) -> Self {
        Self { origin, seq }
    }
}

impl std::fmt::Display for Key {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "G{}/{}", self.origin, self.seq)
    }
}

/// The event phase, mirroring the Chrome trace-event phases the exporter
/// emits (`X`, `B`/`E`, `i`, `s`/`f`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ph {
    /// A complete span: `[ts, ts + dur)`. Most argus spans are recorded
    /// retroactively as completes (at lock grant, at force time, at action
    /// resolution) so a crash can never leave them dangling.
    Complete {
        /// Span length in simulated microseconds.
        dur: u64,
    },
    /// A scoped span opens. `span` pairs it with its [`Ph::End`].
    Begin {
        /// Span id unique within one tracer generation.
        span: u64,
    },
    /// A scoped span closes.
    End {
        /// The [`Ph::Begin`] this closes.
        span: u64,
    },
    /// A point event.
    Instant,
    /// A causal edge leaves this guardian (e.g. a 2PC message is sent).
    FlowStart {
        /// Flow id unique within one tracer generation.
        flow: u64,
    },
    /// A causal edge arrives (the message is delivered). A duplicated
    /// message yields several ends for one start; a dropped message leaves
    /// the start unresolved — both are legal, see [`crate::lint_events`].
    FlowEnd {
        /// The [`Ph::FlowStart`] this resolves.
        flow: u64,
    },
}

/// One recorded trace event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// What happened; names the category, the event and its arguments.
    pub kind: Kind,
    /// Phase and phase-specific payload.
    pub ph: Ph,
    /// Timestamp on the simulated clock, microseconds.
    pub ts: u64,
    /// The guardian lane the event belongs to.
    pub gid: Gid,
    /// The action the event belongs to, when one is known.
    pub key: Option<Key>,
    /// Argument values, in [`Kind::arg_names`] order; unused slots are 0.
    pub args: [u64; 2],
}

impl TraceEvent {
    /// The category (`action`, `cc`, `force`, `net`, …).
    pub fn cat(&self) -> &'static str {
        self.kind.cat()
    }

    /// The event name (`lock_wait`, `force_wait`, `Prepare`, …).
    pub fn name(&self) -> &'static str {
        self.kind.name()
    }

    /// The names of the arguments this event carries.
    pub fn arg_names(&self) -> &'static [&'static str] {
        self.kind.arg_names()
    }

    /// The value of the argument called `name`, if the event has one.
    pub fn arg(&self, name: &str) -> Option<u64> {
        self.arg_names()
            .iter()
            .position(|&n| n == name)
            .map(|i| self.args[i])
    }

    /// The half-open interval a complete span covers.
    pub fn interval(&self) -> Option<(u64, u64)> {
        match self.ph {
            Ph::Complete { dur } => Some((self.ts, self.ts.saturating_add(dur))),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn args_are_read_by_catalogued_name() {
        let e = TraceEvent {
            kind: Kind::Force,
            ph: Ph::Complete { dur: 1 },
            ts: 0,
            gid: 0,
            key: None,
            args: [4, 2],
        };
        assert_eq!(
            (e.arg("batch"), e.arg("ops"), e.arg("pno")),
            (Some(4), Some(2), None)
        );
    }

    #[test]
    fn complete_interval_saturates() {
        let e = TraceEvent {
            kind: Kind::Action,
            ph: Ph::Complete { dur: u64::MAX },
            ts: 5,
            gid: 0,
            key: None,
            args: [0; 2],
        };
        assert_eq!(e.interval(), Some((5, u64::MAX)));
    }

    #[test]
    fn key_renders_origin_and_seq() {
        assert_eq!(Key::new(2, 9).to_string(), "G2/9");
    }
}
