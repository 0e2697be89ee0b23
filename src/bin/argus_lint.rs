//! Lint a stable log on disk against the invariant catalogue I1–I10, run
//! the exhaustive crash-schedule sweeper, run the randomized
//! fault-composition explorer (the VOPR), or record a causal trace.
//!
//! ```sh
//! cargo run --example persistent            # create some state first
//! cargo run --bin argus-lint                # lint the demo log
//! cargo run --bin argus-lint -- <path>      # lint any store file or dir
//!
//! cargo run --release --bin argus-lint -- sweep            # full matrix
//! cargo run --release --bin argus-lint -- sweep --double   # + second crash
//! cargo run --release --bin argus-lint -- sweep --kind hybrid --max 8
//!
//! cargo run --release --bin argus-lint -- vopr --seed 7 --iterations 96
//! cargo run --release --bin argus-lint -- vopr --seeds 32 --kind shadow
//! cargo run --release --bin argus-lint -- vopr --seeds 8 --guardians 16
//! cargo run --release --bin argus-lint -- vopr --selftest
//!
//! cargo run --release --bin argus-lint -- trace --seed 7 --out trace.json
//! cargo run --release --bin argus-lint -- trace --selftest
//! cargo run --release --bin argus-lint -- trace --kinds
//! ```
//!
//! Lint mode exits 0 when the log is clean, 1 when any invariant is
//! violated, 2 when the file cannot be opened as a stable log. Sweep mode
//! exits 0 when every explored crash schedule recovered to a legal,
//! lint-clean state and 1 when any counterexample was found. A
//! counterexample prints its point (`crash@write[k] of G` and any
//! `+ crash@recovery-op[j]`, or `un-faulted run`), the failing check, and
//! its flight dumps (schedule text with the ledger and logs, then trace).
//!
//! Vopr mode runs seeded randomized fault-composition runs (message drop,
//! duplication, reorder, partitions with heals, pauses, clock skew, media
//! decay, crashes with recovery) against a multi-guardian 2PC workload,
//! checking I1–I12 and aborted invisibility at every quiesce point and the
//! full legal-outcomes oracle once every fault has lifted.
//! One summary line per seed; on any violation the schedule is dumped
//! through the flight recorder and the same `--seed N --iterations M`
//! replays it byte for byte. `--seeds K` runs seeds `seed..seed+K`.
//! `--selftest` proves the detection path: it plants an impossible oracle
//! expectation, requires the run to catch it, replays it, and checks the
//! flight dumps landed. Exits 1 on violations (or a failed selftest).
//!
//! Trace mode runs a seeded 3-guardian 2PC banking workload with
//! device-detail tracing on and writes the Chrome trace-event JSON (open
//! `chrome://tracing` or <https://ui.perfetto.dev> and load the file). The
//! trace is byte-identical for a given seed. `--selftest` additionally
//! checks exactly that (two runs, compared byte for byte), runs the I12
//! structural trace lint, and round-trips the trace through the flight
//! recorder; it exits 1 on any failure. `--kinds` prints the event
//! catalogue instead: category, name and argument names, one kind a line.

use argus::check::sweep::{sweep, SweepConfig};
use argus::check::{detect_flavor, lint_log, FaultTally, LogImage, VoprConfig};
use argus::core::providers::FileProvider;
use argus::guardian::RsKind;
use std::path::PathBuf;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("sweep") => run_sweep(&args[1..]),
        Some("vopr") => run_vopr(&args[1..]),
        Some("trace") => run_trace(&args[1..]),
        _ => run_lint(args.first().map(PathBuf::from)),
    }
}

/// The `vopr` subcommand: seeded randomized fault-composition runs, one
/// summary line per seed, exit 1 on any violation.
fn run_vopr(args: &[String]) {
    let mut seed = 1u64;
    let mut iterations = 96u64;
    let mut seeds = 1u64;
    let mut kind = RsKind::Hybrid;
    let mut guardians = 3u32;
    let mut selftest = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--seed" => {
                seed = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage("--seed needs an integer"));
            }
            "--guardians" => {
                guardians = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .filter(|&n| n >= 2)
                    .unwrap_or_else(|| usage("--guardians needs an integer >= 2"));
            }
            "--iterations" => {
                iterations = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage("--iterations needs a positive integer"));
            }
            "--seeds" => {
                seeds = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage("--seeds needs a positive integer"));
            }
            "--kind" => {
                kind = match it.next().map(String::as_str) {
                    Some("simple") => RsKind::Simple,
                    Some("hybrid") => RsKind::Hybrid,
                    Some("shadow") => RsKind::Shadow,
                    Some("redo") => RsKind::Redo,
                    _ => usage("--kind needs simple|hybrid|shadow|redo"),
                };
            }
            "--selftest" => selftest = true,
            other => usage(&format!("unknown vopr flag {other}")),
        }
    }

    let reg = argus::obs::Registry::new();
    let _scope = reg.enter();

    if selftest {
        // Prove the detection-and-replay path end to end: plant an
        // impossible committed expectation, require the explorer to catch
        // it, replay it identically, and dump the schedule.
        let mut cfg = VoprConfig::new(seed, iterations.min(32));
        cfg.kind = kind;
        cfg.guardians = guardians;
        cfg.break_oracle = true;
        let a = argus::check::vopr(&cfg);
        let b = argus::check::vopr(&cfg);
        let mut failed = false;
        if a.is_clean() {
            eprintln!("selftest: the planted oracle bug was NOT detected");
            failed = true;
        } else {
            eprintln!(
                "selftest: planted bug detected ({} violations)",
                a.violations.len()
            );
        }
        if a.line() != b.line() || a.violations != b.violations {
            eprintln!("selftest: two seed-{seed} runs diverged");
            eprintln!("  a: {}", a.line());
            eprintln!("  b: {}", b.line());
            failed = true;
        } else {
            eprintln!("selftest: seed {seed} replays byte-identically");
        }
        if a.flight.is_empty() {
            eprintln!("selftest: no flight-recorder dump was written");
            failed = true;
        }
        for p in a.flight.iter().chain(&b.flight) {
            if std::path::Path::new(p).exists() {
                eprintln!("selftest: flight dump {p}");
            } else {
                eprintln!("selftest: flight dump {p} is missing");
                failed = true;
            }
        }
        std::process::exit(if failed { 1 } else { 0 });
    }

    let started = std::time::Instant::now();
    let mut tally = FaultTally::default();
    let mut violations = 0u64;
    for s in seed..seed + seeds {
        let mut cfg = VoprConfig::new(s, iterations);
        cfg.kind = kind;
        cfg.guardians = guardians;
        let summary = argus::check::vopr(&cfg);
        println!("{summary}");
        for p in &summary.flight {
            println!("  flight: {p}");
        }
        tally.absorb(&summary.faults);
        violations += summary.violations.len() as u64;
    }
    println!(
        "vopr: {} seed(s) x {} iterations ({:?}), faults[{tally}], {} violations in {:.2?}",
        seeds,
        iterations,
        kind,
        violations,
        started.elapsed(),
    );
    std::process::exit(if violations == 0 { 0 } else { 1 });
}

/// [`argus::traced_run`] as the Chrome JSON export and the I12 verdicts.
fn traced_run(seed: u64) -> (String, Vec<argus::check::Violation>) {
    let run = argus::traced_run(seed);
    (run.chrome_json, run.violations)
}

/// The `trace` subcommand: record a seeded run, export Chrome JSON, and
/// (with `--selftest`) verify determinism, I12, and the flight recorder.
fn run_trace(args: &[String]) {
    let mut seed = 1u64;
    let mut out: Option<PathBuf> = None;
    let mut selftest = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--seed" => {
                seed = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage("--seed needs an integer"));
            }
            "--out" => {
                out = Some(PathBuf::from(
                    it.next().unwrap_or_else(|| usage("--out needs a path")),
                ));
            }
            "--selftest" => selftest = true,
            "--kinds" => {
                for kind in argus::trace::Kind::ALL {
                    let args = kind.arg_names().join(",");
                    let line = format!("{:<9} {:<15} {args}", kind.cat(), kind.name());
                    println!("{}", line.trim_end());
                }
                return;
            }
            other => usage(&format!("unknown trace flag {other}")),
        }
    }

    let (json, violations) = traced_run(seed);
    let mut failed = false;
    if !violations.is_empty() {
        for v in &violations {
            eprintln!("I12: {v}");
        }
        failed = true;
    }
    if selftest {
        let (again, _) = traced_run(seed);
        if json != again {
            eprintln!("selftest: two seed-{seed} runs produced different trace bytes");
            failed = true;
        } else {
            eprintln!("selftest: seed {seed} trace is byte-identical across runs");
        }
        // Flight-recorder round trip: the dump must reproduce the export
        // exactly. Re-record so the dump sees the tracer, not the JSON.
        let _ = traced_run(seed);
        let tracer = argus::trace::current();
        match argus::trace::flight::dump(&format!("lint-selftest-seed{seed}"), &tracer) {
            Ok(path) => {
                let round = std::fs::read_to_string(&path).unwrap_or_default();
                if round == json {
                    eprintln!("selftest: flight dump {} round-trips", path.display());
                } else {
                    eprintln!(
                        "selftest: flight dump {} differs from export",
                        path.display()
                    );
                    failed = true;
                }
                let _ = std::fs::remove_file(&path);
            }
            Err(e) => {
                eprintln!("selftest: flight dump failed: {e}");
                failed = true;
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
    match out {
        Some(path) => {
            std::fs::write(&path, &json).unwrap_or_else(|e| {
                eprintln!("{}: cannot write trace: {e}", path.display());
                std::process::exit(2);
            });
            eprintln!(
                "wrote {} ({} bytes; load in chrome://tracing or ui.perfetto.dev)",
                path.display(),
                json.len()
            );
        }
        None if !selftest => print!("{json}"),
        None => {}
    }
}

/// The crash-schedule sweeper: every write index of the 3-guardian 2PC
/// workload, across the configuration matrix (see `argus_check::sweep`).
fn run_sweep(args: &[String]) {
    let mut double = false;
    let mut stride: u64 = 1;
    let mut max: Option<u64> = None;
    let mut kind: Option<RsKind> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--double" => double = true,
            "--stride" => {
                stride = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage("--stride needs a positive integer"));
            }
            "--max" => {
                max = Some(
                    it.next()
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| usage("--max needs a positive integer")),
                );
            }
            "--kind" => {
                kind = Some(match it.next().map(String::as_str) {
                    Some("simple") => RsKind::Simple,
                    Some("hybrid") => RsKind::Hybrid,
                    Some("shadow") => RsKind::Shadow,
                    Some("redo") => RsKind::Redo,
                    _ => usage("--kind needs simple|hybrid|shadow|redo"),
                });
            }
            other => usage(&format!("unknown sweep flag {other}")),
        }
    }

    let started = std::time::Instant::now();
    let mut cells = SweepConfig::matrix(double, stride);
    if let Some(k) = kind {
        cells.retain(|c| c.kind == k);
    }
    let mut points = 0u64;
    let mut counterexamples = 0u64;
    for cell in &mut cells {
        cell.max_points_per_victim = max;
        let report = sweep(cell);
        println!("{report}");
        for cx in &report.counterexamples {
            println!("  {cx}");
        }
        points += report.total_points();
        counterexamples += report.counterexamples.len() as u64;
    }
    println!(
        "swept {} cells, {} schedule points, {} counterexamples in {:.2?}",
        cells.len(),
        points,
        counterexamples,
        started.elapsed(),
    );
    std::process::exit(if counterexamples == 0 { 0 } else { 1 });
}

fn usage(problem: &str) -> ! {
    eprintln!(
        "{problem}\nusage: argus-lint [<store path>]\n       \
         argus-lint sweep [--double] [--stride N] [--max N] [--kind simple|hybrid|shadow|redo]\n       \
         argus-lint vopr [--seed N] [--iterations M] [--seeds K] [--guardians G] \
         [--kind simple|hybrid|shadow|redo] [--selftest]\n       \
         argus-lint trace [--seed N] [--out PATH] [--selftest] | --kinds"
    );
    std::process::exit(2);
}

fn run_lint(path: Option<PathBuf>) {
    let path = path.unwrap_or_else(|| std::env::temp_dir().join("argus-persistent-demo"));
    if !path.exists() {
        eprintln!(
            "no log at {} (run the `persistent` example first?)",
            path.display()
        );
        std::process::exit(2);
    }

    // A directory is a FileProvider state dir: its stable root names the
    // active log generation.
    let store_path = if path.is_dir() {
        let mut provider = match FileProvider::new(&path) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("{}: cannot open state dir: {e}", path.display());
                std::process::exit(2);
            }
        };
        let generation = match provider.active_generation() {
            Ok(g) => g,
            Err(e) => {
                eprintln!("{}: cannot read stable root: {e}", path.display());
                std::process::exit(2);
            }
        };
        provider.store_path(generation)
    } else {
        path
    };

    let mut log = match argus::check::open_copy(&store_path) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("{}: cannot open stable log: {e}", store_path.display());
            std::process::exit(2);
        }
    };

    let image = LogImage::from_log(&mut log);
    let report = lint_log(&image);
    println!(
        "{}: {} entries ({} undecodable), {} flavor",
        store_path.display(),
        image.len(),
        image.bad_records().len(),
        detect_flavor(&image),
    );
    println!("{report}");
    std::process::exit(if report.is_clean() { 0 } else { 1 });
}
