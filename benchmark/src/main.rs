//! `argus-benchmark`: four workloads on all four storage organizations,
//! end-to-end metrics from an untraced run, per-layer metrics from a traced
//! one. See `benchmark/README.md`; run through `benchmark/run.sh`.

mod alloc;
mod json;
mod leaf;
mod metrics;
mod report;
mod run;
mod shards;
mod spans;
mod stack;
mod stats;
mod store;
mod target;

use metrics::RunResult;
use run::{Plan, Workload, REFERENCE_SECONDS};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use target::Res;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

const USAGE: &str =
    "usage: benchmark/run.sh [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]]
       benchmark/run.sh --smoke
       benchmark/run.sh --repeat N [--workload NAME] [--seed N] [--seconds S]
       benchmark/run.sh --compare A.json B.json
workloads: solo_commit batch_commit sharded_2pc crash_restart
Without --workload every workload runs, untraced then traced (--trace 0 or
--trace 1 picks one). ARGUS_BENCH_DIR overrides where file media live.";

/// Where results, traces and — when nothing better is writable — the run
/// directory go: git-ignored, inside the benchmark's own directory.
const OUT_DIR: &str = "benchmark/out";

#[derive(Debug, Default)]
struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    /// `None` = both passes.
    trace: Option<bool>,
    smoke: bool,
    repeat: Option<usize>,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        seed: 1,
        seconds: REFERENCE_SECONDS,
        ..Args::default()
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                args.workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&args.seconds) {
                    return Err("--seconds must be 1..=60".into());
                }
            }
            "--trace" => {
                // `--trace 0|1` is the driver's form; a bare `--trace`
                // means the traced pass.
                args.trace = Some(match it.peek().map(String::as_str) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                });
            }
            "--smoke" => args.smoke = true,
            "--repeat" => {
                args.repeat = Some(
                    value("a count")?
                        .parse()
                        .map_err(|e| format!("--repeat: {e}"))?,
                );
            }
            "--compare" => {
                args.compare = Some((value("two files")?.into(), value("two files")?.into()));
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// The per-run directory for file media: fresh, and removed at start, at
/// exit and on panic.
struct RunDir {
    path: PathBuf,
    medium: &'static str,
}

impl RunDir {
    fn create() -> Res<RunDir> {
        let name = format!("argus-benchmark-{}", std::process::id());
        // tmpfs keeps the sandbox's disk out of the latencies; `fsync`
        // there still costs the system call and the store's own work.
        let candidates = [
            (
                std::env::var_os("ARGUS_BENCH_DIR").map(PathBuf::from),
                "custom",
            ),
            (Some(PathBuf::from("/dev/shm")), "tmpfs"),
            (Some(PathBuf::from(OUT_DIR)), "checkout"),
        ];
        for (base, medium) in candidates {
            let Some(base) = base else { continue };
            let path = base.join(&name);
            let _ = std::fs::remove_dir_all(&path);
            if std::fs::create_dir_all(&path).is_ok() {
                let dir = RunDir { path, medium };
                let doomed = dir.path.clone();
                let hook = std::panic::take_hook();
                std::panic::set_hook(Box::new(move |info| {
                    let _ = std::fs::remove_dir_all(&doomed);
                    hook(info);
                }));
                return Ok(dir);
            }
        }
        Err("no writable place for the run directory".into())
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

fn print_result(r: &RunResult) {
    println!(
        "== {} ({}) ==",
        r.workload.name(),
        if r.traced {
            "traced: per-layer metrics"
        } else {
            "untraced: end-to-end metrics"
        }
    );
    for note in &r.notes {
        println!("# {note}");
    }
    for m in &r.metrics {
        println!("{:<40} {:>16.4} {}", m.name, m.value, m.unit);
    }
    println!(
        "# attempted {} failed {} correct {}",
        r.attempted,
        r.failed,
        r.correct()
    );
}

/// Runs one pass of one workload in a fresh run directory.
fn one_pass(workload: Workload, args: &Args, traced: bool) -> Res<RunResult> {
    let dir = RunDir::create()?;
    let mut plan = Plan::new(workload, args.seconds);
    if args.smoke {
        plan = plan.smoke();
    }
    let result = if traced {
        metrics::per_layer(&plan, args.seed, &dir.path, Path::new(OUT_DIR), dir.medium)
    } else {
        metrics::end_to_end(&plan, args.seed, &dir.path, dir.medium)
    };
    drop(dir);
    result
}

fn run(args: &Args) -> Res<bool> {
    if let Some((a, b)) = &args.compare {
        return report::compare(a, b);
    }
    let workloads = args.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]);
    if let Some(n) = args.repeat {
        return report::repeat(n, &workloads, args.seed, args.seconds, Path::new(OUT_DIR));
    }
    let passes: &[bool] = match args.trace {
        Some(false) => &[false],
        Some(true) => &[true],
        None => &[false, true],
    };
    let mut results = Vec::new();
    for &workload in &workloads {
        for &traced in passes {
            let r = one_pass(workload, args, traced)?;
            print_result(&r);
            results.push(r);
        }
    }
    let mut ok = results.iter().all(RunResult::correct);
    if args.smoke {
        ok &= report::smoke_check(&results)?;
    }
    // The driver's form — one workload, one pass — ends in that pass's
    // result line; anything else ends in a list of them.
    match results.as_slice() {
        [only] if args.workload.is_some() => println!("{}", only.to_json().dump()),
        all => println!("{}", report::results_json(all, args.seed).dump()),
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("argus-benchmark: an output check failed");
            ExitCode::from(1)
        }
        Err(e) => {
            eprintln!("argus-benchmark: {e}");
            ExitCode::from(1)
        }
    }
}
