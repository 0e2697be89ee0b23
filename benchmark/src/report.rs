//! Tools over results: the smoke check of the metric catalogue, `--repeat`
//! with its spread table, `--compare` of two result sets.

use crate::json::{obj, Json};
use crate::metrics::RunResult;
use crate::run::Workload;
use crate::stats::{median, py_quartiles};
use crate::target::Res;
use std::collections::BTreeMap;
use std::path::Path;

/// One end-to-end metric as `BENCHMARK.json` declares it.
struct Declared {
    name: String,
    unit: String,
    lower_is_better: bool,
    bound: f64,
}

struct Spec {
    end_to_end: Vec<Declared>,
    per_layer: Vec<Declared>,
}

fn load_spec() -> Res<Spec> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run from the repository root): {e}"))?;
    let json = Json::parse(&text)?;
    let list = |key: &str| -> Res<Vec<Declared>> {
        json.get(key)
            .ok_or(format!("BENCHMARK.json has no {key}"))?
            .as_arr()
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(Json::as_str).map(str::to_owned);
                Ok(Declared {
                    name: field("name").ok_or("metric without a name")?,
                    unit: field("unit").ok_or("metric without a unit")?,
                    lower_is_better: field("better").as_deref() != Some("higher"),
                    bound: m.get("bound").and_then(Json::as_f64).unwrap_or(0.0),
                })
            })
            .collect()
    };
    Ok(Spec {
        end_to_end: list("end_to_end")?,
        per_layer: list("per_layer")?,
    })
}

/// Every pass of a multi-pass invocation as one JSON value.
pub fn results_json(results: &[RunResult], seed: u64) -> Json {
    let runs = results
        .iter()
        .map(|r| {
            let mut run = r.to_json();
            if let Json::Obj(m) = &mut run {
                m.insert("workload".into(), Json::Str(r.workload.name().into()));
                m.insert("trace".into(), Json::Num(f64::from(u8::from(r.traced))));
            }
            run
        })
        .collect();
    obj([
        (
            "correct",
            Json::Bool(results.iter().all(RunResult::correct)),
        ),
        ("seed", Json::Num(seed as f64)),
        ("runs", Json::Arr(runs)),
    ])
}

/// Every metric `BENCHMARK.json` lists is printed exactly once per
/// workload by the pass it belongs to, with the declared unit and a finite
/// value; nothing undeclared is printed; every name is well formed.
pub fn smoke_check(results: &[RunResult]) -> Res<bool> {
    let spec = load_spec()?;
    let mut problems = Vec::new();
    for r in results {
        let declared = if r.traced {
            &spec.per_layer
        } else {
            &spec.end_to_end
        };
        let pass = format!("{} trace {}", r.workload.name(), u8::from(r.traced));
        for d in declared {
            let found: Vec<_> = r.metrics.iter().filter(|m| m.name == d.name).collect();
            match found.as_slice() {
                [m] if m.unit != d.unit => {
                    problems.push(format!(
                        "{pass}: {} has unit {}, declared {}",
                        d.name, m.unit, d.unit
                    ));
                }
                [m] if !m.value.is_finite() => {
                    problems.push(format!("{pass}: {} is {}", d.name, m.value));
                }
                [_] => {}
                other => problems.push(format!("{pass}: {} printed {} times", d.name, other.len())),
            }
        }
        for m in &r.metrics {
            let well_formed = !m.name.is_empty()
                && m.name.len() <= 64
                && m.name
                    .bytes()
                    .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b));
            if !well_formed {
                problems.push(format!("{pass}: malformed name {:?}", m.name));
            }
            if !declared.iter().any(|d| d.name == m.name) {
                problems.push(format!("{pass}: {} is not in BENCHMARK.json", m.name));
            }
        }
    }
    for p in &problems {
        eprintln!("smoke: {p}");
    }
    println!(
        "# smoke: {} end-to-end and {} per-layer metrics declared, {} problem(s)",
        spec.end_to_end.len(),
        spec.per_layer.len(),
        problems.len()
    );
    Ok(problems.is_empty())
}

/// `(workload, metric) -> one value per run`.
type Samples = BTreeMap<(String, String), Vec<f64>>;

fn samples_of(set: &Json) -> Samples {
    let mut samples = Samples::new();
    for run in set.get("runs").map(Json::as_arr).unwrap_or_default() {
        let Some(workload) = run.get("workload").and_then(Json::as_str) else {
            continue;
        };
        let Some(Json::Obj(metrics)) = run.get("metrics") else {
            continue;
        };
        for (name, m) in metrics {
            if let Some(v) = m.get("value").and_then(Json::as_f64) {
                samples
                    .entry((workload.to_owned(), name.clone()))
                    .or_default()
                    .push(v);
            }
        }
    }
    samples
}

/// Runs the untraced pass `n` times per workload, each time in a fresh
/// process with another seed — the acceptance check's own procedure — and
/// prints median, quartiles and spread against each metric's bound.
pub fn repeat(
    n: usize,
    workloads: &[Workload],
    seed: u64,
    seconds: u64,
    out_dir: &Path,
) -> Res<bool> {
    if n < 2 {
        return Err("--repeat needs at least 2 runs for quartiles".into());
    }
    let spec = load_spec()?;
    let exe = std::env::current_exe()?;
    let mut runs = Vec::new();
    let mut all_correct = true;
    for i in 0..n as u64 {
        for w in workloads {
            eprintln!("repeat {}/{n}: {} seed {}", i + 1, w.name(), seed + i);
            let output = std::process::Command::new(&exe)
                .args(["--workload", w.name(), "--trace", "0"])
                .args(["--seed", &(seed + i).to_string()])
                .args(["--seconds", &seconds.to_string()])
                .output()?;
            let stdout = String::from_utf8_lossy(&output.stdout);
            let last = stdout.lines().last().unwrap_or_default();
            let mut run = Json::parse(last).map_err(|e| {
                format!(
                    "{} seed {}: no result line ({e}); stderr: {}",
                    w.name(),
                    seed + i,
                    String::from_utf8_lossy(&output.stderr)
                )
            })?;
            all_correct &= output.status.success() && run.get("correct") == Some(&Json::Bool(true));
            if let Json::Obj(m) = &mut run {
                m.insert("workload".into(), Json::Str(w.name().into()));
                m.insert("seed".into(), Json::Num((seed + i) as f64));
            }
            runs.push(run);
        }
    }
    let set = obj([
        ("seconds", Json::Num(seconds as f64)),
        ("runs", Json::Arr(runs)),
    ]);
    std::fs::create_dir_all(out_dir)?;
    let stamp = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let path = out_dir.join(format!("repeat-{stamp}.json"));
    std::fs::write(&path, set.dump())?;

    let samples = samples_of(&set);
    let mut within = true;
    println!(
        "{:<14} {:<22} {:>14} {:>14} {:>14} {:>8} {:>7}",
        "workload", "metric", "median", "q1", "q3", "spread", "bound"
    );
    for w in workloads {
        for d in &spec.end_to_end {
            let Some(xs) = samples.get(&(w.name().to_owned(), d.name.clone())) else {
                println!("{:<14} {:<22} missing", w.name(), d.name);
                within = false;
                continue;
            };
            let (q1, q3) = py_quartiles(xs);
            let med = median(xs);
            let spread = (q3 - q1) / med;
            // Set-up time is held to its bound between medians of two sets
            // (`--compare`), not within one.
            let wide = spread > d.bound && d.name != "setup_s";
            within &= !wide;
            println!(
                "{:<14} {:<22} {:>14.4} {:>14.4} {:>14.4} {:>7.2}% {:>6.1}%{}",
                w.name(),
                d.name,
                med,
                q1,
                q3,
                spread * 100.0,
                d.bound * 100.0,
                if wide { "  WIDE" } else { "" }
            );
        }
    }
    println!("# {n} runs per workload written to {}", path.display());
    Ok(within && all_correct)
}

/// Compares the medians of two result sets: for every end-to-end metric and
/// workload, the second may not be worse than the first by more than the
/// metric's bound.
pub fn compare(a: &Path, b: &Path) -> Res<bool> {
    let spec = load_spec()?;
    let load =
        |p: &Path| -> Res<Samples> { Ok(samples_of(&Json::parse(&std::fs::read_to_string(p)?)?)) };
    let (first, second) = (load(a)?, load(b)?);
    let mut ok = true;
    println!(
        "{:<14} {:<22} {:>14} {:>14} {:>8} {:>7}",
        "workload", "metric", "median A", "median B", "worse", "bound"
    );
    for w in Workload::ALL {
        for d in &spec.end_to_end {
            let key = (w.name().to_owned(), d.name.clone());
            let (Some(xa), Some(xb)) = (first.get(&key), second.get(&key)) else {
                continue;
            };
            let (ma, mb) = (median(xa), median(xb));
            let worse = if d.lower_is_better {
                (mb - ma) / ma
            } else {
                (ma - mb) / ma
            };
            let beyond = worse > d.bound;
            ok &= !beyond;
            println!(
                "{:<14} {:<22} {:>14.4} {:>14.4} {:>7.2}% {:>6.1}%{}",
                w.name(),
                d.name,
                ma,
                mb,
                worse * 100.0,
                d.bound * 100.0,
                if beyond { "  WORSE" } else { "" }
            );
        }
    }
    Ok(ok)
}
