//! `argus-lint dump`: a stable log on disk as the thesis draws it — the
//! superblock and what an open finds beyond it, every entry decoded, where
//! each force ended, the backward chain of outcome entries, and where
//! recovery starts.

use argus::check::LogImage;
use argus::core::LogEntry;
use argus::obs::{Count, Registry};
use argus::slog::FORMAT_VERSION;
use argus::trace::{Kind, Tracer};
use std::path::PathBuf;

fn describe(entry: &LogEntry) -> String {
    match entry {
        LogEntry::Data {
            uid,
            kind,
            aid,
            value,
        } => format!("data          {uid} {kind} by {aid}: {value}"),
        LogEntry::DataH { kind, value } => format!("data          ({kind}) {value}"),
        LogEntry::DataR {
            uid,
            kind,
            aid,
            back,
            value,
        } => {
            let back = back.map(|b| format!(" ⇤ {b}")).unwrap_or_default();
            format!("data_r        {uid} {kind} by {aid}: {value}{back}")
        }
        LogEntry::Prepared { aid, pairs, .. } => {
            let pairs: Vec<String> = pairs.iter().map(|(u, l)| format!("{u}→{l}")).collect();
            format!("prepared      {aid} [{}]", pairs.join(", "))
        }
        LogEntry::Committed { aid, .. } => format!("committed     {aid}"),
        LogEntry::Aborted { aid, .. } => format!("aborted       {aid}"),
        LogEntry::BaseCommitted { uid, value, .. } => format!("base_committed {uid}: {value}"),
        LogEntry::PreparedData {
            uid, aid, value, ..
        } => format!("prepared_data {uid} by {aid}: {value}"),
        LogEntry::Committing { aid, gids, .. } => {
            let gids: Vec<String> = gids.iter().map(|g| g.to_string()).collect();
            format!("committing    {aid} participants [{}]", gids.join(", "))
        }
        LogEntry::Done { aid, .. } => format!("done          {aid}"),
        LogEntry::CommittedSs { cssl, .. } => {
            format!("committed_ss  checkpoint of {} objects", cssl.len())
        }
    }
}

/// Prints the log at `path` (resolved as lint mode resolves it).
pub fn run(path: Option<PathBuf>) {
    // The open's milestones land in a registry and a tracer of its own.
    let (reg, tracer) = (Registry::new(), Tracer::new());
    let (path, mut log) = {
        let _scope = (reg.enter(), tracer.enter());
        super::open_store(path)
    };
    println!(
        "{}: {} entries, {} bytes",
        path.display(),
        log.stable_count(),
        log.stable_bytes()
    );
    // What the open found: the superblock from its `log_opened` instant,
    // how far past it the scan went from the counters it bumped.
    let count = |row: Count| reg.counter(row).get();
    let (scanned, discarded) = (
        count(Count::SlogOpenScannedBytes),
        count(Count::SlogOpenDiscardedBytes),
    );
    for opened in tracer.events().iter().filter(|e| e.kind == Kind::LogOpened) {
        let [epoch, published_tail] = opened.args;
        println!(
            "superblock: version {FORMAT_VERSION}, epoch {}, published tail {published_tail}; \
             recovered tail {} ({} bytes of forces past the superblock, \
             {discarded} intact bytes beyond the last end-of-force mark dropped)",
            epoch - 1,
            published_tail + scanned - discarded,
            scanned - discarded,
        );
    }
    println!();

    // Decoded entries and undecodable records, in address order.
    let image = LogImage::from_log(&mut log);
    let decoded = image.entries().iter().zip(image.seqs().unwrap_or_default());
    let bad = image
        .bad_records()
        .iter()
        .map(|b| (b.addr, b.seq, Err(&b.why)));
    let mut records: Vec<_> = decoded.map(|((a, e), s)| (*a, *s, Ok(e))).collect();
    records.extend(bad);
    records.sort_by_key(|r| r.0);

    let top = log.get_top();
    for (addr, seq, entry) in records {
        match entry {
            Ok(entry) => {
                let chain = match entry.prev() {
                    Some(prev) => format!("⤴ {prev}"),
                    None if entry.is_outcome() => "⤴ nil".to_string(),
                    None => String::new(),
                };
                let head = if Some(addr) == top { "  ← top" } else { "" };
                println!("{addr:>8} #{seq:<4} {:<60} {chain}{head}", describe(entry));
            }
            Err(why) => println!("{addr:>8} #{seq:<4} <undecodable: {why}>"),
        }
        // Where each force ended: its last frame is its commit point.
        if matches!(log.ends_force(addr), Ok(true)) {
            println!("{:>8} ┄┄┄┄┄ end of force", "");
        }
    }
    let chain_len = image.entries().iter().filter(|(_, e)| e.is_outcome());
    println!(
        "\n{} outcome entries on the backward chain; recovery starts at {}",
        chain_len.count(),
        top.map(|a| a.to_string()).unwrap_or_else(|| "-".into())
    );
}
