//! One front door to the tools over a stable log and the guardian world:
//! lint a log on disk against the invariant catalogue I1–I10, dump it, run
//! a shell over a world, run the exhaustive crash-schedule sweeper or the
//! randomized fault-composition explorer (the VOPR), or record a causal
//! trace. `usage` lists every flag.
//!
//! ```sh
//! cargo run --example persistent                # create some state first
//! cargo run --bin argus-lint [-- <path>]        # lint the demo's or any log
//! cargo run --bin argus-lint -- dump [<path>]   # print it, record by record
//! echo "spawn redo\nset G0 x 42\nget G0 x" | cargo run --bin argus-lint -- repl
//! cargo run --release --bin argus-lint -- sweep --double --kind hybrid --max 8
//! cargo run --release --bin argus-lint -- vopr --seeds 8 --guardians 16
//! cargo run --release --bin argus-lint -- vopr --selftest
//! cargo run --release --bin argus-lint -- trace --seed 7 --out trace.json
//! cargo run --bin argus-lint -- obs --names
//! ```
//!
//! Lint and dump read a `FileProvider` state directory's active generation
//! or a store file, on a private copy. Lint exits 0 when the log is clean,
//! 1 when any invariant is violated, 2 when the path cannot be opened as a
//! stable log (as dump does). Dump prints the superblock and what the open
//! found past it, every record in address order with its backward-chain
//! link and each force's end, and where recovery starts.
//!
//! Sweep mode exits 0 when every explored crash schedule recovered to a
//! legal, lint-clean state and 1 when any counterexample was found. A
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
//!
//! `obs --names` prints the metric catalogue (`argus::obs::{Count, Hist}`):
//! kind (counter or histogram), dotted name and meaning, one row a line.

mod dump;
mod repl;

use argus::check::sweep::{sweep, SweepConfig};
use argus::check::{detect_flavor, lint_log, FaultTally, LogImage, VoprConfig};
use argus::core::providers::FileProvider;
use argus::guardian::RsKind;
use argus::slog::StableLog;
use argus::stable::DurableFileStore;
use std::fmt::Display;
use std::path::PathBuf;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("sweep") => run_sweep(&args[1..]),
        Some("vopr") => run_vopr(&args[1..]),
        Some("trace") => run_trace(&args[1..]),
        Some("obs") => run_obs(&args[1..]),
        Some("dump") => dump::run(args.get(1).map(PathBuf::from)),
        Some("repl") => repl::run(),
        _ => run_lint(args.first().map(PathBuf::from)),
    }
}

/// The value after a flag, or the usage text headed by `problem`.
fn value<T: std::str::FromStr>(it: &mut std::slice::Iter<String>, problem: &str) -> T {
    it.next()
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| usage(problem))
}

/// The `obs --names` subcommand: the metric catalogue, one row a line.
fn run_obs(args: &[String]) {
    if args != ["--names"] {
        usage("obs needs --names");
    }
    let row = |kind, name, meaning| println!("{kind:<9} {name:<30} {meaning}");
    for c in argus::obs::Count::ALL {
        row("counter", c.name(), c.meaning());
    }
    for h in argus::obs::Hist::ALL {
        row("histogram", h.name(), h.meaning());
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
            "--seed" => seed = value(&mut it, "--seed needs an integer"),
            "--guardians" => guardians = value(&mut it, GUARDIANS),
            "--iterations" => iterations = value(&mut it, "--iterations needs a positive integer"),
            "--seeds" => seeds = value(&mut it, "--seeds needs a positive integer"),
            "--kind" => kind = value(&mut it, "--kind needs an organization"),
            "--selftest" => selftest = true,
            other => usage(&format!("unknown vopr flag {other}")),
        }
    }
    const GUARDIANS: &str = "--guardians needs an integer >= 2";
    if guardians < 2 {
        usage(GUARDIANS);
    }

    let reg = argus::obs::Registry::new();
    let _scope = reg.enter();
    let config = |seed, iterations| VoprConfig {
        kind,
        guardians,
        ..VoprConfig::new(seed, iterations)
    };

    if selftest {
        // Prove the detection-and-replay path end to end: plant an
        // impossible committed expectation, require the explorer to catch
        // it, replay it identically, and dump the schedule.
        let cfg = VoprConfig {
            break_oracle: true,
            ..config(seed, iterations.min(32))
        };
        let (a, b) = (argus::check::vopr(&cfg), argus::check::vopr(&cfg));
        let mut failed = false;
        let caught = format!("planted bug detected ({} violations)", a.violations.len());
        let missed = "the planted oracle bug was NOT detected";
        step(&mut failed, !a.is_clean(), caught, missed);
        let same = a.line() == b.line() && a.violations == b.violations;
        let replayed = format!("seed {seed} replays byte-identically");
        let diverged = format!(
            "two seed-{seed} runs diverged\n  a: {}\n  b: {}",
            a.line(),
            b.line()
        );
        step(&mut failed, same, replayed, diverged);
        if a.flight.is_empty() {
            eprintln!("selftest: no flight-recorder dump was written");
            failed = true;
        }
        for p in a.flight.iter().chain(&b.flight) {
            let exists = std::path::Path::new(p).exists();
            step(
                &mut failed,
                exists,
                format!("flight dump {p}"),
                format!("flight dump {p} is missing"),
            );
        }
        std::process::exit(if failed { 1 } else { 0 });
    }

    let started = std::time::Instant::now();
    let mut tally = FaultTally::default();
    let mut violations = 0u64;
    for s in seed..seed + seeds {
        let summary = argus::check::vopr(&config(s, iterations));
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

/// One selftest step: prints `good` when `ok`, else prints `bad` and marks
/// the selftest failed.
fn step(failed: &mut bool, ok: bool, good: impl Display, bad: impl Display) {
    if ok {
        eprintln!("selftest: {good}");
    } else {
        eprintln!("selftest: {bad}");
        *failed = true;
    }
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
            "--seed" => seed = value(&mut it, "--seed needs an integer"),
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

    let run = argus::traced_run(seed);
    let json = run.chrome_json;
    for v in &run.violations {
        eprintln!("I12: {v}");
    }
    let mut failed = !run.violations.is_empty();
    if selftest {
        let same = json == argus::traced_run(seed).chrome_json;
        let good = format!("seed {seed} trace is byte-identical across runs");
        let bad = format!("two seed-{seed} runs produced different trace bytes");
        step(&mut failed, same, good, bad);
        // Flight-recorder round trip: the dump must reproduce the export
        // exactly. Re-record so the dump sees the tracer, not the JSON.
        argus::traced_run(seed);
        let tracer = argus::trace::current();
        match argus::trace::flight::dump(&format!("lint-selftest-seed{seed}"), &tracer) {
            Ok(path) => {
                let round = std::fs::read_to_string(&path).unwrap_or_default() == json;
                let dump = format!("flight dump {}", path.display());
                let bad = format!("{dump} differs from export");
                step(&mut failed, round, format!("{dump} round-trips"), bad);
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
            "--stride" => stride = value(&mut it, "--stride needs a positive integer"),
            "--max" => max = Some(value(&mut it, "--max needs a positive integer")),
            "--kind" => kind = Some(value(&mut it, "--kind needs an organization")),
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
    let kinds = RsKind::ALL.map(RsKind::name).join("|");
    eprintln!(
        "{problem}\nusage: argus-lint [<store path>]\n       \
         argus-lint dump [<store path>]\n       \
         argus-lint repl\n       \
         argus-lint sweep [--double] [--stride N] [--max N] [--kind {kinds}]\n       \
         argus-lint vopr [--seed N] [--iterations M] [--seeds K] [--guardians G] \
         [--kind {kinds}] [--selftest]\n       \
         argus-lint trace [--seed N] [--out PATH] [--selftest] | --kinds\n       \
         argus-lint obs --names"
    );
    std::process::exit(2);
}

/// Opens the log at `path` (the demo's state directory when `None`) on a
/// private copy, or exits 2: a directory is a `FileProvider` state dir,
/// whose stable root names the active log generation — read as it is,
/// nothing in the directory created or removed. Returns the store file's
/// path with the log.
fn open_store(path: Option<PathBuf>) -> (PathBuf, StableLog<DurableFileStore>) {
    let path = path.unwrap_or_else(|| std::env::temp_dir().join("argus-persistent-demo"));
    let fail = |problem: String| -> ! {
        eprintln!("{problem}");
        std::process::exit(2)
    };
    let shown = path.display();
    if !path.exists() {
        fail(format!(
            "no log at {shown} (run the `persistent` example first?)"
        ));
    }
    let store = if path.is_dir() {
        let store = FileProvider::active_store(&path);
        store.unwrap_or_else(|e| fail(format!("{shown}: cannot read stable root: {e}")))
    } else {
        path.clone()
    };
    let log = argus::check::open_copy(&store);
    let log =
        log.unwrap_or_else(|e| fail(format!("{}: cannot open stable log: {e}", store.display())));
    (store, log)
}

fn run_lint(path: Option<PathBuf>) {
    let (store_path, mut log) = open_store(path);
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
