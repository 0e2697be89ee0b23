//! The flight recorder: when a checker finds a counterexample, the full
//! trace of the failing schedule is dumped next to the repro command so
//! the history is preserved even though re-running may be expensive.
//!
//! Dumps land in `ARGUS_FLIGHT_DIR` when set, else `target/flight-recorder`
//! under the current directory. File names are derived from the caller's
//! label (sanitized) and never overwrite: an existing file gets a numeric
//! suffix, so a sweep that finds several counterexamples keeps every one.

use crate::chrome::export;
use crate::tracer::Tracer;
use std::io::Write as _;
use std::path::PathBuf;

/// Where flight dumps go.
pub fn flight_dir() -> PathBuf {
    match std::env::var_os("ARGUS_FLIGHT_DIR") {
        Some(dir) => PathBuf::from(dir),
        None => PathBuf::from("target").join("flight-recorder"),
    }
}

fn sanitize(label: &str) -> String {
    let mut out: String = label
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '.' {
                c
            } else {
                '_'
            }
        })
        .collect();
    out.truncate(120);
    if out.is_empty() {
        out.push_str("trace");
    }
    out
}

/// Creates a file no other dump owns: the name is claimed atomically
/// (`create_new`), so two threads dumping under one label at once get two
/// files, never one truncated by the other.
fn fresh_file(label: &str, ext: &str) -> std::io::Result<(PathBuf, std::fs::File)> {
    let dir = flight_dir();
    std::fs::create_dir_all(&dir)?;
    let stem = sanitize(label);
    let mut path = dir.join(format!("{stem}.{ext}"));
    let mut n = 1u32;
    loop {
        match std::fs::File::create_new(&path) {
            Ok(file) => return Ok((path, file)),
            Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                path = dir.join(format!("{stem}.{n}.{ext}"));
                n += 1;
            }
            Err(e) => return Err(e),
        }
    }
}

/// Dumps `tracer` as a Chrome trace, noting events lost to the cap; returns the file.
pub fn dump(label: &str, tracer: &Tracer) -> std::io::Result<PathBuf> {
    let (path, mut f) = fresh_file(label, "trace.json")?;
    f.write_all(export(&tracer.events(), tracer.dropped()).as_bytes())?;
    Ok(path)
}

/// Dumps a plain-text schedule (the explorer's step list); returns the
/// file written.
pub fn dump_text(label: &str, lines: &[String]) -> std::io::Result<PathBuf> {
    let (path, mut f) = fresh_file(label, "schedule.txt")?;
    for line in lines {
        writeln!(f, "{line}")?;
    }
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_sanitize_to_safe_file_stems() {
        assert_eq!(
            sanitize("hybrid cached w2@write[3]"),
            "hybrid_cached_w2_write_3_"
        );
        assert_eq!(sanitize(""), "trace");
    }

    #[test]
    fn a_dump_of_a_capped_trace_counts_what_it_lost() {
        use crate::{Kind, EVENT_CAP};
        let t = Tracer::new();
        for _ in 0..EVENT_CAP + 3 {
            t.instant(Kind::VoteSent, 0, None, &[1]);
        }
        let path = dump(&format!("flight-capped-{}", std::process::id()), &t).unwrap();
        let json = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        assert!(json.contains("\"otherData\":{\"dropped_events\":3},"));
        assert_eq!(json.matches("\"vote_sent\"").count(), EVENT_CAP);
    }

    #[test]
    fn concurrent_dumps_under_one_label_never_share_a_file() {
        const THREADS: usize = 8;
        let label = format!("flight-race-{}", std::process::id());
        let start = std::sync::Barrier::new(THREADS);
        let paths: Vec<PathBuf> = std::thread::scope(|s| {
            let dumps: Vec<_> = (0..THREADS)
                .map(|i| {
                    let (label, start) = (&label, &start);
                    s.spawn(move || {
                        start.wait();
                        dump_text(label, &[format!("dump {i}")]).unwrap()
                    })
                })
                .collect();
            dumps.into_iter().map(|d| d.join().unwrap()).collect()
        });
        let mut texts: Vec<String> = paths
            .iter()
            .map(|p| std::fs::read_to_string(p).unwrap())
            .collect();
        for path in &paths {
            let _ = std::fs::remove_file(path);
        }
        let distinct: std::collections::BTreeSet<&PathBuf> = paths.iter().collect();
        assert_eq!(distinct.len(), THREADS, "{paths:?}");
        texts.sort();
        let want: Vec<String> = (0..THREADS).map(|i| format!("dump {i}\n")).collect();
        assert_eq!(texts, want, "every dump intact in its own file");
    }
}
