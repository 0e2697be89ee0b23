//! The metric catalogue: every counter and histogram the stack records,
//! named once. Code records by row (`reg.inc(Count::SlogAppends)`); a
//! [`crate::Registry`] is one slot per row, so nothing is resolved by name
//! at run time, and `argus-lint obs --names` prints the list.
//!
//! A name is dotted and starts with its owning layer (`slog.`, `stable.`,
//! `core.`, `twopc.`, `net.`, `world.`, `cc.`, `check.`, `vopr.`,
//! `bench.`); a `_us` suffix means simulated µs. Rows are declared in name
//! order, which is the order a report lists them in and what the by-name
//! lookup of tests and the benchmark searches.

use std::fmt;

/// Declares one row enum, its `ALL` list and its name table from one list.
macro_rules! rows {
    ($(#[$doc:meta])* $ty:ident { $($row:ident => $name:literal, $meaning:literal;)* }) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
        pub enum $ty {
            $(#[doc = $meaning] $row,)*
        }

        impl $ty {
            /// Every row, in name order: `ALL[r as usize] == r`.
            pub const ALL: &'static [$ty] = &[$($ty::$row),*];

            const TABLE: &'static [(&'static str, &'static str)] = &[$(($name, $meaning)),*];

            /// The dotted name, as reports print it.
            pub fn name(self) -> &'static str {
                Self::TABLE[self as usize].0
            }

            /// What the row counts, in one line.
            pub fn meaning(self) -> &'static str {
                Self::TABLE[self as usize].1
            }

            /// The row called `name`: a binary search over the sorted
            /// names. Panics, naming it, if there is none.
            #[inline]
            pub fn named(name: &str) -> Self {
                match Self::TABLE.binary_search_by(|&(n, _)| n.cmp(name)) {
                    Ok(at) => Self::ALL[at],
                    Err(_) => panic!("{name:?} is no {} of the argus-obs catalogue", stringify!($ty)),
                }
            }
        }

        impl fmt::Display for $ty {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str(self.name())
            }
        }
    };
}

rows! {
    /// A counter: one row of the catalogue (module docs).
    Count {
        BenchAllocsPerCommit => "bench.allocs_per_commit", "Heap allocations one steady-state commit makes (bench test).";
        BenchProbe => "bench.probe", "Bumped by the benchmark's by-name increment probe; nothing else records it.";
        CcDeadlocks => "cc.deadlocks", "Wait-for cycles the deadlock search found.";
        CcRetries => "cc.retries", "Aborted-and-retried attempts a workload counted.";
        CcTimeouts => "cc.timeouts", "Lock waits given up after the wait limit.";
        CcVictims => "cc.victims", "Actions aborted to break a deadlock.";
        CcWaits => "cc.waits", "Lock requests that parked behind a holder.";
        CheckExploreCrashPoints => "check.explore.crash_points", "Crash points the bounded explorer injected.";
        CheckExploreDedupPruned => "check.explore.dedup_pruned", "Interleavings pruned because the successor state was already seen.";
        CheckExploreDeliveries => "check.explore.deliveries", "Messages the explorer delivered.";
        CheckExploreDepthLimited => "check.explore.depth_limited", "Explorer branches cut by the step budget.";
        CheckExploreDrops => "check.explore.drops", "Messages the explorer dropped.";
        CheckExploreLintRuns => "check.explore.lint_runs", "Per-node log lints run on visited states.";
        CheckExploreStatesVisited => "check.explore.states_visited", "Distinct states the explorer visited.";
        CheckExploreTerminalStates => "check.explore.terminal_states", "Terminal (quiescent, fully recovered) states reached.";
        CheckLintRuns => "check.lint.runs", "Log lint passes run.";
        CheckLintViolations => "check.lint.violations", "Violations reported across all lint passes.";
        CheckSweepCounterexamples => "check.sweep.counterexamples", "Legality or lint failures the crash sweeper found.";
        CheckSweepDoubleCrashes => "check.sweep.double_crashes", "Second-crash (crash-during-recovery) points swept.";
        CheckSweepPoints => "check.sweep.points", "First-crash schedule points swept, one full workload run each.";
        CoreAborts => "core.aborts", "`aborted` outcome entries staged.";
        CoreCommits => "core.commits", "`committed` outcome entries staged.";
        CoreCommittings => "core.committings", "`committing` outcome entries staged by coordinators.";
        CoreDones => "core.dones", "`done` outcome entries staged by coordinators.";
        CoreEarlyPrepares => "core.early_prepares", "Data entries flushed ahead of the prepare (hybrid early prepare).";
        CoreEntriesData => "core.entries.data", "Data entries appended.";
        CoreEntriesDataBytes => "core.entries.data_bytes", "Payload bytes of the data entries appended.";
        CoreHkEntriesReclaimed => "core.hk.entries_reclaimed", "Log entries a housekeeping pass reclaimed.";
        CoreHkFilesReaped => "core.hk.files_reaped", "Supplanted log files the file provider unlinked.";
        CoreHkPasses => "core.hk.passes", "Housekeeping passes finished.";
        CoreHkReapFailures => "core.hk.reap_failures", "Supplanted log files the file provider failed to unlink.";
        CorePrepares => "core.prepares", "`prepared` outcome entries staged.";
        CoreRecoverChainHops => "core.recover.chain_hops", "Outcome-chain links recovery followed.";
        CoreRecoverDataEntriesRead => "core.recover.data_entries_read", "Data entries recovery read.";
        CoreRecoverEntriesExamined => "core.recover.entries_examined", "Log entries recovery examined.";
        CoreRecoverLazyRestores => "core.recover.lazy_restores", "Objects restored on demand after an on-demand recovery.";
        CoreRecoveries => "core.recoveries", "Recovery passes run.";
        NetDelivered => "net.delivered", "Envelopes the network delivered.";
        NetDropped => "net.dropped", "Envelopes the network lost to an injected fault.";
        NetPartitioned => "net.partitioned", "Envelopes lost to a partition.";
        NetSelfSent => "net.self_sent", "Envelopes whose sender is their recipient; no guardian mails itself, so 0.";
        NetSent => "net.sent", "Envelopes sent.";
        SlogAppendBytes => "slog.append_bytes", "Payload bytes appended to the log.";
        SlogAppends => "slog.appends", "Records appended to the log.";
        SlogBackwardHops => "slog.backward_hops", "Records a backward walk stepped over.";
        SlogEntryReads => "slog.entry_reads", "Records read back from the log.";
        SlogFlushes => "slog.flushes", "Writes of the pending frames to the device ahead of a force.";
        SlogForces => "slog.forces", "Log forces: one device barrier each.";
        SlogOpenDiscardedBytes => "slog.open.discarded_bytes", "Bytes an open scanned but cut off as an unfinished tail.";
        SlogOpenScannedBytes => "slog.open.scanned_bytes", "Bytes an open scanned past the superblock's top.";
        SlogOpenScannedRecords => "slog.open.scanned_records", "Records an open scanned past the superblock's top.";
        SlogSuperblockWrites => "slog.superblock_writes", "Superblock (page 0) writes.";
        StableCacheHit => "stable.cache.hit", "Page reads the page cache answered.";
        StableCacheMiss => "stable.cache.miss", "Page reads that went to the device.";
        StableCacheReadahead => "stable.cache.readahead", "Read-ahead runs the page cache fetched.";
        StableCrashesFired => "stable.crashes_fired", "Injected crashes a fault plan fired.";
        StableFileBytesRead => "stable.file.bytes_read", "Bytes the file store read with pread.";
        StableFileBytesWritten => "stable.file.bytes_written", "Bytes the file store wrote with pwrite.";
        StableFileFsyncs => "stable.file.fsyncs", "fsync calls, the parent directory's at file creation included.";
        StableFilePreads => "stable.file.preads", "pread calls.";
        StableFilePwrites => "stable.file.pwrites", "pwrite calls, one per contiguous run a sync writes.";
        StableMirrorRepairs => "stable.mirror.repairs", "Pages a mirrored disk repaired from its good copy.";
        StableMirrorScrubs => "stable.mirror.scrubs", "Scrub passes over a mirrored disk.";
        TwopcCoordAborted => "twopc.coord.aborted", "Coordinators that decided abort.";
        TwopcCoordCommitted => "twopc.coord.committed", "Coordinators that reached their commit point.";
        TwopcCoordDone => "twopc.coord.done", "Coordinators that wrote `done`.";
        TwopcCoordResumed => "twopc.coord.resumed", "Coordinators rebuilt from the log at a restart.";
        TwopcCoordStarted => "twopc.coord.started", "Coordinators started.";
        TwopcPartAborts => "twopc.part.aborts", "Participants that aborted.";
        TwopcPartCommits => "twopc.part.commits", "Participants that committed.";
        TwopcPartPrepareOk => "twopc.part.prepare_ok", "Prepares a participant voted yes on.";
        TwopcPartPrepareRefused => "twopc.part.prepare_refused", "Prepares a participant refused.";
        TwopcPartPrepares => "twopc.part.prepares", "Prepare messages a participant took up.";
        TwopcPartResumedInDoubt => "twopc.part.resumed_in_doubt", "Participants rebuilt in doubt from the log at a restart.";
        VoprActions => "vopr.actions", "Workload actions the VOPR drove.";
        VoprChecks => "vopr.checks", "Quiesce-point invariant checks the VOPR ran.";
        VoprFaultCrash => "vopr.fault.crash", "Crashes injected, explicit and armed.";
        VoprFaultDecay => "vopr.fault.decay", "Media pages decayed.";
        VoprFaultDefer => "vopr.fault.defer", "Deferrals (reorderings) injected.";
        VoprFaultDrop => "vopr.fault.drop", "Messages lost by the injector.";
        VoprFaultDuplicate => "vopr.fault.duplicate", "Duplicate deliveries injected.";
        VoprFaultHeal => "vopr.fault.heal", "Partitions healed.";
        VoprFaultPartition => "vopr.fault.partition", "Partitions opened.";
        VoprFaultPause => "vopr.fault.pause", "Guardian pauses begun.";
        VoprFaultRestart => "vopr.fault.restart", "Restarts (recoveries) driven.";
        VoprFaultSkew => "vopr.fault.skew", "Clock-skew advances applied.";
        VoprSteps => "vopr.steps", "VOPR steps executed.";
        VoprViolations => "vopr.violations", "Invariant or oracle violations the VOPR found.";
        WorldAborts => "world.aborts", "Commits settled as aborted.";
        WorldCommits => "world.commits", "Commits settled as committed.";
        WorldCrashes => "world.crashes", "Guardian crashes, requested or injected.";
        WorldDemandRestores => "world.demand_restores", "Objects a world restored on demand.";
        WorldPending => "world.pending", "Commits asked after and not yet settled.";
        WorldRecoveryCrashes => "world.recovery_crashes", "Crashes that fired inside a restart's recovery.";
        WorldRestarts => "world.restarts", "Guardian restarts finished.";
        WorldSchedPolls => "world.sched.polls", "Guardians the delivery loop polled.";
    }
}

rows! {
    /// A histogram: one row of the catalogue (module docs).
    Hist {
        CcWaitUs => "cc.wait_us", "Simulated µs a lock request waited before its grant.";
        CoreHkBeginUs => "core.hk.begin_us", "Simulated µs of a housekeeping pass's first stage.";
        CoreHkFinishUs => "core.hk.finish_us", "Simulated µs of a housekeeping pass's second stage and switch.";
        CorePrepareUs => "core.prepare_us", "Simulated µs to stage a prepare's data and `prepared` entries.";
        CoreRecoverUs => "core.recover_us", "Simulated µs of one recovery pass.";
        SlogForceBatchSize => "slog.force.batch_size", "Records made durable by one log force.";
        SlogForceUs => "slog.force_us", "Simulated µs of one log force.";
        TwopcAbortUs => "twopc.abort_us", "Simulated µs to stage a participant's `aborted` entry.";
        TwopcCommitRoundUs => "twopc.commit_round_us", "Simulated µs from a commit's launch to its verdict.";
        TwopcCommitUs => "twopc.commit_us", "Simulated µs to stage a `committed` entry (participant or local action).";
        TwopcCommittingUs => "twopc.committing_us", "Simulated µs to stage a distributed action's commit point at home.";
        TwopcPrepareUs => "twopc.prepare_us", "Simulated µs to stage a participant's prepare.";
        WorldRestartUs => "world.restart_us", "Simulated µs of one guardian restart.";
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names<T: Copy>(all: &[T], name: fn(T) -> &'static str) -> Vec<&'static str> {
        all.iter().map(|&r| name(r)).collect()
    }

    #[test]
    fn names_are_unique_and_in_name_order() {
        for names in [names(Count::ALL, Count::name), names(Hist::ALL, Hist::name)] {
            for pair in names.windows(2) {
                assert!(
                    pair[0] < pair[1],
                    "{} must come before {}",
                    pair[1],
                    pair[0]
                );
            }
        }
        for (i, &c) in Count::ALL.iter().enumerate() {
            assert_eq!(c as usize, i);
            assert_eq!(Count::named(c.name()), c);
        }
        for (i, &h) in Hist::ALL.iter().enumerate() {
            assert_eq!(h as usize, i);
            assert_eq!(Hist::named(h.name()), h);
        }
    }

    #[test]
    fn every_name_is_layer_dot_rest() {
        let all = names(Count::ALL, Count::name).into_iter();
        for name in all.chain(names(Hist::ALL, Hist::name)) {
            let (layer, rest) = name.split_once('.').expect(name);
            let word = |s: &str| {
                !s.is_empty()
                    && s.chars()
                        .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
            };
            assert!(word(layer) && rest.split('.').all(word), "{name}");
        }
        for h in Hist::ALL {
            assert!(!h.meaning().is_empty(), "{h}");
        }
    }

    /// The names the benchmark reads by string: the twelve chunk counters
    /// of `benchmark/src/run.rs` (`COUNTERS`) and the increment probe of
    /// `benchmark/src/leaf.rs`. Each must stay a row, or the benchmark
    /// panics on its first lookup.
    #[test]
    fn every_name_the_benchmark_reads_is_a_row() {
        for name in [
            "world.sched.polls",
            "net.sent",
            "slog.forces",
            "slog.appends",
            "slog.append_bytes",
            "stable.file.bytes_written",
            "stable.cache.hit",
            "stable.cache.miss",
            "stable.cache.readahead",
            "cc.waits",
            "cc.deadlocks",
            "cc.retries",
            "bench.probe",
        ] {
            assert_eq!(Count::named(name).name(), name);
        }
    }

    #[test]
    #[should_panic(expected = "\"slog.apends\" is no Count of the argus-obs catalogue")]
    fn an_unknown_name_panics_and_names_itself() {
        Count::named("slog.apends");
    }
}
