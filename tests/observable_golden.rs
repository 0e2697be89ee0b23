//! Nothing observable moved: the seeded traced run's trace bytes and
//! metrics, pinned as literals.
//!
//! `argus-lint trace --selftest` only compares a binary with itself, so a
//! change could rewrite every trace and stay green. These literals were
//! taken at the commit before instrumentation went handle-based (PR 14's
//! parent); a change that adds, drops, reorders or re-times an event — or
//! moves a count to another registry — shows up here as a diff.
//!
//! Re-pinned once since, every count downward, when `done` stopped being
//! forced and a local action began to commit in one step. Of the run's 40
//! commits the 37 transfers are distributed and the 3 that set the accounts
//! up are local: 3 fewer `committing`/`done` pairs and participant machines,
//! 12 fewer messages, 46 fewer forces (37 `done`s, 3 × 3 steps folded into
//! one), so fewer `force`/`force_wait` spans, journal records (750 → 689)
//! and trace bytes; the last two `done` records are still in a log buffer
//! when the run ends (353 appends, 351 forced).
//!
//! Re-pinned a second time, again downward, when a force became one barrier
//! with its commit point in its own last frame (DESIGN.md deviation 11).
//! The same 188 forces publish the same 351 entries, but none of them
//! writes page 0 or waits for a second barrier: each force's simulated time
//! falls from 90–110 k µs to 15–45 k (`slog.force_us`, and with it
//! `twopc.commit_round_us` and every journal timestamp), the 188
//! `page_write` device spans of page 0 leave the trace (417 → 229 of them,
//! 212 113 → 189 422 bytes), and the 185 `stable.cache.hit`s vanish — they were the
//! tail page being re-read after every superblock write had dropped the
//! log's one-page cache. New: `slog.superblock_writes` 3, one per log
//! created; no log here runs 32 KiB past its superblock. Every protocol
//! count, message, append and journal record (689) is what it was.
//!
//! Re-pinned a third time, every count downward, when the coordinator
//! stopped running two-phase commit with itself (DESIGN.md deviation 12).
//! Each of the 37 transfers spans two guardians; its coordinator's guardian
//! used to be a participant of its own protocol — a participant machine,
//! four self-addressed messages, and a force each for its `prepared`, its
//! `committing` and its own `committed`. Those three records now share one
//! force, the commit point: 37 × 2 fewer forces (188 → 114, publishing the
//! same 351 of the same 353 appended entries, byte for byte — `slog.appends`,
//! `slog.append_bytes` and every `core.*` count are what they were), 37 × 4
//! fewer messages (296 → 148), 37 fewer participant machines
//! (`twopc.part.*` 74 → 37), 37 fewer separately timed commit and prepare
//! steps (`twopc.commit_us` 77 → 40, `twopc.prepare_us` 74 → 37), 148 fewer
//! scheduler polls, 74 fewer `page_write` spans (229 → 155), and with them
//! fewer journal records (689 → 578) and trace bytes (189 422 → 117 706).
//! The slowest commit round falls from 115 k to 85 k simulated µs. The three
//! local commits' spans, records and bytes are untouched.
//!
//! Re-pinned a fourth time when the client's verdict moved to the commit
//! point (DESIGN.md deviation 10, R1): a distributed action's `action` span
//! and its `twopc.commit_round_us` now end when its coordinator's commit
//! point is durable, not when the last `CommitAck` is in — 15 k simulated
//! µs earlier for each of the 37 transfers (round sum 2 440 000 →
//! 1 765 000, min 45 k → 30 k, max 85 k → 70 k). No action runs while
//! another commits, so every participant's `committed` is forced when it
//! was before: every count, force, message and the trace's length are what
//! they were; only the spans' end times move.
//!
//! The journal's literal went with the journal. The trace bytes and the
//! counters above it were not re-pinned: the run opens no log from disk,
//! fires no crash, repairs no mirror and runs no housekeeping, so none of
//! the milestone kinds that replaced its events is in it.

use argus::obs::Report;
use argus::slog::crc32;

#[test]
fn seed_1_chrome_trace_is_byte_identical() {
    let run = argus::traced_run(1);
    assert!(run.violations.is_empty(), "I12: {:?}", run.violations);
    assert_eq!(run.chrome_json.len(), 117_706);
    assert_eq!(crc32(run.chrome_json.as_bytes()), 0x27c8_8916);
}

/// Every counter that is not zero and every histogram that saw a sample,
/// one per line. (A component lists its whole metric catalogue in the
/// report once it is built, so zero rows come and go with construction
/// order; what was *counted* may not.)
fn counted(report: &Report) -> String {
    let mut out = String::new();
    for (name, v) in report.counters.iter().filter(|(_, v)| *v != 0) {
        out.push_str(&format!("{name} {v}\n"));
    }
    for (name, h) in report.hists.iter().filter(|(_, h)| h.count != 0) {
        out.push_str(&format!(
            "{name} count={} sum={} min={} max={}\n",
            h.count, h.sum, h.min, h.max
        ));
    }
    out
}

#[test]
fn seed_1_report_counts_what_it_counted() {
    let report = argus::traced_run(1).report;
    assert_eq!(
        counted(&report),
        "\
core.commits 77
core.committings 37
core.dones 37
core.entries.data 77
core.entries.data_bytes 2005
core.prepares 77
net.delivered 148
net.sent 148
slog.append_bytes 10025
slog.appends 353
slog.flushes 114
slog.forces 114
slog.superblock_writes 3
stable.cache.miss 35
twopc.coord.committed 40
twopc.coord.done 40
twopc.coord.started 40
twopc.part.commits 37
twopc.part.prepare_ok 37
twopc.part.prepares 37
world.commits 40
world.sched.polls 228
core.prepare_us count=77 sum=0 min=0 max=0
slog.force.batch_size count=114 sum=351 min=1 max=19
slog.force_us count=114 sum=2440000 min=15000 max=45000
twopc.commit_round_us count=40 sum=1765000 min=30000 max=70000
twopc.commit_us count=40 sum=0 min=0 max=0
twopc.committing_us count=37 sum=0 min=0 max=0
twopc.prepare_us count=37 sum=0 min=0 max=0
"
    );
}
