//! The event catalogue: every event the stack records, named once. A record
//! call passes a [`Kind`] and its argument *values*; the buffer stores a kind
//! byte, and `argus-lint trace --kinds` lists everything a trace may hold.

/// Declares [`Kind`], [`Kind::ALL`] and the accessors' table from one list.
macro_rules! catalogue {
    ($($kind:ident => $cat:literal, $name:literal, [$($arg:literal),*];)*) => {
        /// One kind of trace event: a row of the catalogue (module docs).
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        pub enum Kind {
            $($kind,)*
        }

        impl Kind {
            /// Every kind, in declaration order: `Kind::ALL[k as usize] == k`.
            pub const ALL: &'static [Kind] = &[$(Kind::$kind),*];

            const TABLE: &'static [(&'static str, &'static str, &'static [&'static str])] =
                &[$(($cat, $name, &[$($arg),*])),*];
        }
    };
}

catalogue! {
    // An action, begin to verdict; lock waits, parks and deadlock victims.
    Action => "action", "action", ["committed"];
    LockWait => "cc", "lock_wait", ["hid", "holder_seq"];
    LockBlocked => "cc", "lock_blocked", ["hid", "holder_seq"];
    DeadlockVictim => "cc", "deadlock_victim", ["cycle_len"];
    // One log force of a staged batch, and a staged step waiting for it.
    Force => "force", "force", ["batch", "ops"];
    ForceWait => "force", "force_wait", ["batch"];
    Restart => "recovery", "restart", [];
    RecoveryPass => "recovery", "recovery_pass", [];
    // Two-phase commit: a participant's three steps, the coordinator's
    // commit point (a local action's commit) and `done`, then its instants.
    Prepare => "twopc", "prepare", [];
    Commit => "twopc", "commit", [];
    Abort => "twopc", "abort", [];
    CommitPoint => "twopc", "commit_point", [];
    CommitLocally => "twopc", "commit_locally", [];
    Done => "twopc", "done", [];
    PrepareSent => "twopc", "prepare_sent", ["participants"];
    VoteSent => "twopc", "vote_sent", ["ok"];
    OutcomeSent => "twopc", "outcome_sent", ["committed"];
    // One flow kind per message, send to delivery (`argus_twopc::Msg::flow`).
    NetPrepare => "net", "Prepare", [];
    NetPrepareOk => "net", "PrepareOk", [];
    NetPrepareRefused => "net", "PrepareRefused", [];
    NetCommit => "net", "Commit", [];
    NetCommitAck => "net", "CommitAck", [];
    NetAbort => "net", "Abort", [];
    NetQueryOutcome => "net", "QueryOutcome", [];
    NetOutcome => "net", "Outcome", [];
    // Device detail: page transfers below the cache, and read-ahead runs.
    PageRead => "device", "page_read", ["pno"];
    PageWrite => "device", "page_write", ["pno"];
    Readahead => "device", "readahead", ["pages", "from"];
    // Milestones off the commit path: a log's open, an injected crash, a
    // mirrored disk repairing a page, and one housekeeping pass per mode.
    LogOpened => "log", "log_opened", ["epoch", "published_tail"];
    CrashFired => "fault", "crash_fired", ["crash_count"];
    MirrorRepair => "device", "mirror_repair", ["page"];
    Compaction => "housekeeping", "compaction", ["entries_out", "reclaimed"];
    Snapshot => "housekeeping", "snapshot", ["entries_out", "reclaimed"];
}

impl Kind {
    /// The category (`action`, `cc`, `force`, `net`, `twopc`, `device`, …).
    pub fn cat(self) -> &'static str {
        Self::TABLE[self as usize].0
    }

    /// The event name (`lock_wait`, `force_wait`, `Prepare`, …).
    pub fn name(self) -> &'static str {
        Self::TABLE[self as usize].1
    }

    /// The at most two argument names, in the order record calls pass values.
    pub fn arg_names(self) -> &'static [&'static str] {
        Self::TABLE[self as usize].2
    }
}

impl std::fmt::Display for Kind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn every_kind_is_listed_once_with_a_unique_name_and_at_most_two_args() {
        assert_eq!(Kind::ALL.len(), Kind::TABLE.len());
        for (i, &k) in Kind::ALL.iter().enumerate() {
            assert_eq!(k as usize, i, "{k:?} out of place in Kind::ALL");
            assert!(k.arg_names().len() <= 2, "{k:?} has more than two args");
        }
        let names: HashSet<_> = Kind::ALL.iter().map(|k| (k.cat(), k.name())).collect();
        assert_eq!(names.len(), Kind::ALL.len(), "a (cat, name) pair repeats");
    }

    #[test]
    fn every_name_is_a_bare_identifier_the_exporter_need_not_escape() {
        for k in Kind::ALL {
            for s in [k.cat(), k.name()].iter().chain(k.arg_names()) {
                let bare = s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_');
                assert!(bare && !s.is_empty(), "{k:?}: {s:?}");
            }
        }
    }
}
