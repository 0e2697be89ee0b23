//! Inspect a stable log on disk: the superblock and what an open finds
//! beyond it, every entry decoded, where each force ended, the backward
//! chain of outcome entries, and what recovery would see.
//!
//! ```sh
//! cargo run --example persistent           # create some state first
//! cargo run --bin argus_logdump            # dump the demo log
//! cargo run --bin argus_logdump -- <path>  # dump any store file
//! ```

use argus::core::{decode_entry, LogEntry};
use argus::obs::Registry;
use argus::slog::{LogAddress, FORMAT_VERSION};
use argus::trace::{Kind, Tracer};
use std::path::PathBuf;

fn describe(entry: &LogEntry) -> String {
    match entry {
        LogEntry::Data {
            uid,
            kind,
            aid,
            value,
        } => {
            format!("data          {uid} {kind} by {aid}: {value}")
        }
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
        LogEntry::BaseCommitted { uid, value, .. } => {
            format!("base_committed {uid}: {value}")
        }
        LogEntry::PreparedData {
            uid, aid, value, ..
        } => {
            format!("prepared_data {uid} by {aid}: {value}")
        }
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

fn main() {
    let path: PathBuf = std::env::args()
        .nth(1)
        .map(PathBuf::from)
        .unwrap_or_else(|| std::env::temp_dir().join("argus-persistent-demo.log"));
    if !path.exists() {
        eprintln!(
            "no log at {} (run the `persistent` example first?)",
            path.display()
        );
        std::process::exit(1);
    }

    // On a copy: opening a log begins its next epoch on the medium, and the
    // image under inspection must stay what the crash left.
    let (reg, tracer) = (Registry::new(), Tracer::new());
    let opened = {
        let _scope = (reg.enter(), tracer.enter());
        argus::check::open_copy(&path)
    };
    let mut log = opened.expect("open log");
    println!(
        "{}: {} entries, {} bytes",
        path.display(),
        log.stable_count(),
        log.stable_bytes()
    );
    // What the open found: the superblock from its `log_opened` instant,
    // how far past it the scan went from the counters it bumped.
    let count = |name| reg.counter(name).get();
    let (scanned, discarded) = (
        count("slog.open.scanned_bytes"),
        count("slog.open.discarded_bytes"),
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

    // Collect backwards, print forwards.
    let mut entries: Vec<(LogAddress, u64, Vec<u8>)> = Vec::new();
    for item in log.read_backward(None) {
        entries.push(item.expect("read entry"));
    }
    entries.reverse();

    let top = log.get_top();
    let mut chain_len = 0usize;
    for (addr, seq, payload) in &entries {
        match decode_entry(payload) {
            Ok(entry) => {
                let chain = match entry.prev() {
                    Some(prev) => format!("⤴ {prev}"),
                    None if entry.is_outcome() => "⤴ nil".to_string(),
                    None => String::new(),
                };
                if entry.is_outcome() {
                    chain_len += 1;
                }
                let head = if Some(*addr) == top { "  ← top" } else { "" };
                println!("{addr:>8} #{seq:<4} {:<60} {chain}{head}", describe(&entry));
            }
            Err(e) => println!("{addr:>8} #{seq:<4} <undecodable: {e}>"),
        }
        // Where each force ended: its last frame is its commit point.
        if log.ends_force(*addr).expect("read frame header") {
            println!("{:>8} ┄┄┄┄┄ end of force", "");
        }
    }
    println!(
        "\n{} outcome entries on the backward chain; recovery starts at {}",
        chain_len,
        top.map(|a| a.to_string()).unwrap_or_else(|| "-".into())
    );
}
