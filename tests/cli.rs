//! The `argus-lint` front door's `dump` and `repl` subcommands, run as the
//! real binary: `dump` reads a `FileProvider` state directory and its
//! active store file alike, leaves the directory as it found it, and exits
//! 2 on a missing path or a directory with no stable root; `repl` answers a
//! piped script verb by verb.

use argus::core::HousekeepingMode;
use argus::guardian::{MediaKind, Outcome, RsKind, World, WorldConfig};
use argus::objects::Value;
use argus::sim::CostModel;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};

fn lint(args: &[&str], stdin: &str) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_argus-lint"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("argus-lint runs");
    // A subcommand that reads no stdin may have exited already.
    let _ = child.stdin.take().unwrap().write_all(stdin.as_bytes());
    child.wait_with_output().unwrap()
}

/// A hybrid guardian's state directory after three commits (two of them
/// two-guardian), a compaction that switches it to its next log
/// generation, and two more commits; `label` keeps each test's apart.
fn state_dir(label: &str) -> PathBuf {
    let base = std::env::temp_dir().join(format!("argus-cli-{label}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let cfg = WorldConfig {
        media: MediaKind::File {
            dir: Some(base.to_string_lossy().into_owned().leak()),
        },
        ..WorldConfig::default()
    };
    let mut world = World::with_config(CostModel::fast(), cfg);
    let g = world.add_guardian(RsKind::Hybrid).unwrap();
    let h = world.add_guardian(RsKind::Hybrid).unwrap();
    for i in 0..5 {
        if i == 3 {
            world.housekeep(g, HousekeepingMode::Compaction).unwrap();
        }
        let a = world.begin(g).unwrap();
        world
            .set_stable(g, a, &format!("k{i}"), Value::Int(i))
            .unwrap();
        if i % 2 == 1 {
            world.set_stable(h, a, "x", Value::Int(i)).unwrap();
        }
        assert_eq!(world.commit(a).unwrap(), Outcome::Committed);
    }
    drop(world);
    base.join("g0")
}

fn stdout(out: &Output) -> String {
    String::from_utf8(out.stdout.clone()).unwrap()
}

#[test]
fn dump_reads_a_state_dir_and_its_store_file_alike() {
    let dir = state_dir("alike");
    let mut logs: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.file_name().unwrap().to_string_lossy().starts_with("log-"))
        .collect();
    assert_eq!(logs.len(), 1, "{logs:?}");
    let store = logs.pop().unwrap();
    assert!(store.ends_with("log-0001.argus"), "the compaction switched");

    let by_dir = lint(&["dump", dir.to_str().unwrap()], "");
    let by_file = lint(&["dump", store.to_str().unwrap()], "");
    assert!(by_dir.status.success(), "{by_dir:?}");
    assert!(by_file.status.success(), "{by_file:?}");
    let text = stdout(&by_dir);
    assert_eq!(text, stdout(&by_file));

    let entries: Vec<&str> = text
        .lines()
        .filter(|l| l.trim_start().starts_with('@'))
        .collect();
    assert!(entries[0].contains("data"), "{text}");
    assert!(
        entries[1].contains("committed_ss  checkpoint of 1 objects"),
        "{text}"
    );
    assert!(
        entries[1].ends_with("⤴ nil"),
        "the checkpoint ends the chain: {text}"
    );
    assert!(entries.iter().any(|l| l.contains("committing")), "{text}");
    assert!(entries.last().unwrap().ends_with("← top"), "{text}");
    assert!(
        text.lines().any(|l| l.trim() == "┄┄┄┄┄ end of force"),
        "{text}"
    );
    assert!(text.contains("outcome entries on the backward chain; recovery starts at @"));
    let _ = std::fs::remove_dir_all(dir.parent().unwrap());
}

/// The names in `dir`, sorted.
fn listing(dir: &Path) -> Vec<String> {
    let names = std::fs::read_dir(dir).unwrap();
    let mut names: Vec<String> = names
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    names
}

/// An inspector writes nothing where it looks: a directory with no stable
/// root is refused and stays empty, and a state directory keeps the
/// leftover generation a crash would have left for the next open to sweep.
#[test]
fn dump_leaves_the_directory_as_it_found_it() {
    let empty = std::env::temp_dir().join(format!("argus-cli-empty-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&empty);
    std::fs::create_dir_all(&empty).unwrap();
    let out = lint(&["dump", empty.to_str().unwrap()], "");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(listing(&empty).is_empty(), "{:?}", listing(&empty));
    std::fs::remove_dir(&empty).unwrap();

    let dir = state_dir("leftover");
    std::fs::write(dir.join("log-0000.argus"), [0u8; 512]).unwrap();
    let before = listing(&dir);
    assert_eq!(before, ["log-0000.argus", "log-0001.argus", "root.argus"]);
    let out = lint(&["dump", dir.to_str().unwrap()], "");
    assert!(out.status.success(), "{out:?}");
    assert_eq!(listing(&dir), before);
    let _ = std::fs::remove_dir_all(dir.parent().unwrap());
}

#[test]
fn dump_of_a_missing_path_exits_two() {
    let missing = Path::new("/nonexistent/argus-cli-no-such-log");
    let out = lint(&["dump", missing.to_str().unwrap()], "");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("no log at"), "{err}");
    assert!(!err.contains("panicked"), "{err}");
}

#[test]
fn repl_answers_a_script() {
    let script = [
        ("spawn redo", "spawned G0 (Redo)"),
        ("spawn simple", "spawned G1 (Simple)"),
        ("spawn lsm", "error: unknown organization \"lsm\""),
        ("set G0 x 42", "x set; T0.0 → Committed"),
        ("set G1 name hello world", "name set; T1.0 → Committed"),
        ("begin G0", "began T0.1 (coordinator G0)"),
        ("set G0 y 7", "y staged under T0.1"),
        ("set G1 z 8", "z staged under T0.1"),
        ("commit", "T0.1 → Committed"),
        ("begin G1", "began T1.1 (coordinator G1)"),
        ("set G1 w 1", "w staged under T1.1"),
        ("abort", "T1.1 aborted locally"),
        ("commit", "error: no open action"),
        (
            "housekeep G1 compaction",
            "housekept G1: log is now 1 entries",
        ),
        ("crash G0", "G0 is down; its volatile state is gone"),
        ("get G0 x", "x is unset"),
        (
            "restart G0",
            "G0 recovered: 1 objects restored, 7 entries examined, 0 in doubt",
        ),
        ("get G0 x", "x = 42"),
        ("get G0 y", "y = 7"),
        ("get G1 name", "name = \"hello world\""),
        ("get G1 w", "w is unset"),
        ("stats G0", "G0: 7 log entries, "),
        ("stats G1", "G1: 1 log entries, "),
        ("frobnicate", "error: unrecognized command; try `help`"),
        ("quit", "bye"),
    ];
    let input: String = script.iter().map(|(line, _)| format!("{line}\n")).collect();
    let out = lint(&["repl"], &(input + "get G0 x\n"));
    assert!(out.status.success(), "{out:?}");
    let text = stdout(&out);
    let replies: Vec<&str> = text.lines().collect();
    assert_eq!(replies.len(), script.len(), "nothing after `quit`:\n{text}");
    for ((line, want), got) in script.iter().zip(&replies) {
        if line.starts_with("stats") {
            assert!(
                got.starts_with(want) && got.contains("; device "),
                "{line}: {got}"
            );
        } else {
            assert_eq!(got, want, "{line}");
        }
    }
}
