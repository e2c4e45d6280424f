//! Repeatability tooling: the procedure the benchmark's driver applies,
//! run by the benchmark itself.
//!
//! A *set* is `--runs` untraced runs of every workload, each with another
//! seed and each in its own child process, plus one traced run per
//! workload. Per (workload, end-to-end metric) a set yields a median, the
//! quartiles as Python's `statistics.quantiles(values, n=4)` gives them,
//! and the spread (q3 − q1) / median, printed against the metric's bound
//! from `BENCHMARK.json`. With `--sets` above one, consecutive sets'
//! medians are compared against the same bounds and their exact counts
//! must be identical.

use crate::{Args, WORKLOADS};
use cacqr::tuner::json::{self, JsonValue};
use std::process::{Command, ExitCode, Stdio};

/// Per-layer metrics that are counts, not times: they must repeat exactly.
const EXACT_COUNTS: [&str; 8] = [
    "simgrid.msgs_per_op",
    "simgrid.words_per_op",
    "cacqr.flops_per_op",
    "cacqr.critical_flops_per_op",
    "cacqr.arena_allocs_per_op",
    "service.retries_per_kjob",
    "service.escalations_per_kjob",
    "stream.refreshes_per_kstep",
];

struct Bound {
    name: String,
    bound: f64,
}

/// The end-to-end metrics with their bounds, from `BENCHMARK.json`
/// in the working directory (the benchmark runs from the repo root).
fn read_bounds() -> Result<Vec<Bound>, String> {
    let text = std::fs::read_to_string("BENCHMARK.json").map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e:?}"))?;
    let entries = doc
        .get("end_to_end")
        .and_then(JsonValue::as_array)
        .ok_or("BENCHMARK.json: no end_to_end array")?;
    entries
        .iter()
        .map(|entry| {
            let field = |key: &str| {
                entry
                    .get(key)
                    .ok_or(format!("BENCHMARK.json: end_to_end entry without {key}"))
            };
            Ok(Bound {
                name: field("name")?.as_str().unwrap_or_default().to_string(),
                bound: field("bound")?.as_f64().unwrap_or(0.0),
            })
        })
        .collect()
}

/// Runs one workload once in a child process and returns its parsed result
/// line. The child's report is echoed, indented, so a recorded set keeps it.
fn run_child(workload: &str, seed: u64, args: &Args, trace: bool) -> Result<JsonValue, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            &args.seconds.to_string(),
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .stdout(Stdio::piped());
    let output = command.output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    for line in stdout.lines() {
        println!("    {line}");
    }
    if !output.status.success() {
        return Err(format!("{workload} seed {seed}: child exited with {}", output.status));
    }
    let last = stdout.lines().last().ok_or("child printed nothing")?;
    json::parse(last).map_err(|e| format!("{workload} seed {seed}: result line: {e:?}"))
}

fn metric(result: &JsonValue, name: &str) -> Result<f64, String> {
    result
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(JsonValue::as_f64)
        .ok_or(format!("result line has no metric {name}"))
}

/// The three quartiles by Python's `statistics.quantiles(values, n=4)`
/// (the exclusive method); needs at least two values.
fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let m = sorted.len();
    [1, 2, 3].map(|i| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    })
}

/// One set's medians per (workload, end-to-end metric) and its exact counts
/// per workload.
struct SetSummary {
    medians: Vec<Vec<f64>>,
    counts: Vec<Vec<f64>>,
}

fn run_set(set: usize, args: &Args, bounds: &[Bound], ok: &mut bool) -> Result<SetSummary, String> {
    let mut summary = SetSummary {
        medians: Vec::new(),
        counts: Vec::new(),
    };
    let mut table = Vec::new();
    for (workload, _) in WORKLOADS {
        let mut values = vec![Vec::new(); bounds.len()];
        for run in 0..args.runs {
            let seed = args.seed + run as u64;
            println!("set {set} {workload} seed {seed}");
            let result = run_child(workload, seed, args, false)?;
            for (column, bound) in values.iter_mut().zip(bounds) {
                column.push(metric(&result, &bound.name)?);
            }
        }
        let mut medians = Vec::new();
        for (column, bound) in values.iter().zip(bounds) {
            if column.len() < 2 {
                medians.push(column[0]);
                table.push(format!("{workload:<22} {:<10} {:>12.6e}", bound.name, column[0]));
                continue;
            }
            let [q1, median, q3] = quartiles(column);
            let spread = (q3 - q1) / median;
            // `setup_s` is bounded on its median only, not on its spread.
            let within = bound.name == "setup_s" || spread <= bound.bound;
            *ok &= within;
            medians.push(median);
            table.push(format!(
                "{workload:<22} {:<10} median {median:>12.6e}  q1 {q1:>12.6e}  q3 {q3:>12.6e}  spread {spread:>7.4}  bound {:.2}  {}",
                bound.name,
                bound.bound,
                if within { "ok" } else { "SPREAD ABOVE BOUND" }
            ));
        }
        summary.medians.push(medians);

        println!("set {set} {workload} seed {} traced", args.seed);
        let traced = run_child(workload, args.seed, args, true)?;
        let counts = EXACT_COUNTS
            .iter()
            .map(|name| metric(&traced, name))
            .collect::<Result<Vec<f64>, String>>()?;
        table.push(format!("{workload:<22} exact counts {counts:?}"));
        summary.counts.push(counts);
    }
    println!(
        "== set {set}: {} run(s) per workload, seeds from {}",
        args.runs, args.seed
    );
    for line in table {
        println!("{line}");
    }
    Ok(summary)
}

/// Runs `--sets` sets and prints the tables; fails if a spread exceeds its
/// bound, consecutive sets' medians differ by the bound or more in either
/// direction, or an exact count differs between sets.
pub fn run_sets(args: &Args) -> Result<ExitCode, String> {
    let bounds = read_bounds()?;
    let mut ok = true;
    let mut previous: Option<SetSummary> = None;
    for set in 1..=args.sets {
        let summary = run_set(set, args, &bounds, &mut ok)?;
        if let Some(before) = &previous {
            println!("== set {set} against set {}", set - 1);
            for (w, (workload, _)) in WORKLOADS.iter().enumerate() {
                for (b, bound) in bounds.iter().enumerate() {
                    let (old, new) = (before.medians[w][b], summary.medians[w][b]);
                    // Two-sided: the same code must not read much better either.
                    let shift = new / old - 1.0;
                    let within = shift.abs() < bound.bound;
                    ok &= within;
                    println!(
                        "{workload:<22} {:<10} median {old:>12.6e} -> {new:>12.6e}  shift {shift:>+8.4}  bound {:.2}  {}",
                        bound.name,
                        bound.bound,
                        if within { "ok" } else { "MEDIANS DIFFER BY MORE THAN THE BOUND" }
                    );
                }
                let same = before.counts[w] == summary.counts[w];
                ok &= same;
                println!(
                    "{workload:<22} exact counts {}",
                    if same { "identical" } else { "DIFFER" }
                );
            }
        }
        previous = Some(summary);
    }
    Ok(if ok { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}
