//! Nothing observable moved: the seeded traced run's trace bytes, metrics
//! and journal, pinned as literals.
//!
//! `argus-lint trace --selftest` only compares a binary with itself, so a
//! change could rewrite every trace and stay green. These literals were
//! taken at the commit before instrumentation went handle-based (PR 14's
//! parent); a change that adds, drops, reorders or re-times an event — or
//! moves a count to another registry — shows up here as a diff.

use argus::obs::Report;
use argus::slog::crc32;

#[test]
fn seed_1_chrome_trace_is_byte_identical() {
    let run = argus::traced_run(1);
    assert!(run.violations.is_empty(), "I12: {:?}", run.violations);
    assert_eq!(run.chrome_json.len(), 238_498);
    assert_eq!(crc32(run.chrome_json.as_bytes()), 0xae85_4ebc);
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
core.committings 40
core.dones 40
core.entries.data 77
core.entries.data_bytes 2005
core.prepares 77
net.delivered 308
net.sent 308
slog.append_bytes 10175
slog.appends 359
slog.flushes 234
slog.forces 234
stable.cache.hit 230
stable.cache.miss 35
twopc.coord.committed 40
twopc.coord.done 40
twopc.coord.started 40
twopc.part.commits 77
twopc.part.prepare_ok 77
twopc.part.prepares 77
world.commits 40
world.sched.polls 467
core.prepare_us count=77 sum=0 min=0 max=0
slog.force.batch_size count=234 sum=359 min=1 max=18
slog.force_us count=234 sum=21690000 min=90000 max=110000
twopc.commit_round_us count=40 sum=21690000 min=360000 max=580000
twopc.commit_us count=77 sum=0 min=0 max=0
twopc.committing_us count=40 sum=0 min=0 max=0
twopc.prepare_us count=77 sum=0 min=0 max=0
"
    );
    // The journal, in the report's own text form: 750 records, each with
    // its sequence number, simulated timestamp, name and fields.
    let journal = Report {
        counters: Vec::new(),
        hists: Vec::new(),
        events: report.events,
        dropped_events: report.dropped_events,
    }
    .to_text();
    assert_eq!(journal.len(), 51_922);
    assert_eq!(crc32(journal.as_bytes()), 0x3c84_329a);
}
