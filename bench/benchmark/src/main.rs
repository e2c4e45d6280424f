//! The repo benchmark: four workloads, four end-to-end metrics, per-layer
//! attribution measured from outside the library. See `README.md` beside
//! this package and `BENCHMARK.json` at the repo root.
//!
//! ```text
//! benchmark --workload <name> --seed <u64> --seconds <s> --trace <0|1>   one run, one result line
//! benchmark [--seed <u64>] [--seconds <s>] [--sets <n>] [--runs <r>]     every workload, repeatability tables
//! ```
//!
//! A run sets the workload up three times (`setup_s` is the median), then
//! measures whole rounds of its seeded schedule in one closed loop for
//! `--seconds`, verifies every output, and prints a human-readable report
//! followed by one JSON result line. `--trace 1` instead sets up once, alternates
//! untraced and traced rounds for half the length, runs the staged replay
//! and the per-layer suite, writes the spans to
//! `bench/benchmark/out/trace-<workload>.json`, and prints the per-layer
//! metrics. End-to-end metrics always come from the untraced run.

mod factor;
mod gen;
mod layers;
mod metrics;
mod process;
mod replay;
mod service;
mod sets;
mod stats;
mod stream;
mod trace;
mod workload;

use metrics::{result_line, Metrics, END_TO_END, PER_LAYER};
use simgrid::Machine;
use std::process::ExitCode;
use std::time::Instant;
use workload::{measure, Run, Workload};

#[global_allocator]
static ALLOCATOR: process::CountingAllocator = process::CountingAllocator;

/// The workloads, each with the `CACQR_THREADS` budget its process is
/// pinned to: one kernel thread where rank threads already fill (or, at
/// eight ranks, oversubscribe) the two cores, two for the two-worker pool.
pub const WORKLOADS: [(&str, usize); 4] = [
    ("tall_skinny_1d", 1),
    ("square_ca_3d", 1),
    ("service_small_panels", 2),
    ("stream_window", 1),
];

/// Matches `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 20.0;
/// Timed set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;

pub struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    sets: usize,
    runs: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        sets: 1,
        runs: 1,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: expected {what}");
        match flag.as_str() {
            "--workload" => {
                if !WORKLOADS.iter().any(|(name, _)| *name == value) {
                    return Err(bad(
                        "one of tall_skinny_1d, square_ca_3d, service_small_panels, stream_window",
                    ));
                }
                args.workload = Some(value);
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad("an unsigned integer"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("a number of seconds"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err(bad("between 0 and 600 seconds"));
                }
            }
            "--trace" => args.trace = value.parse::<u8>().map_err(|_| bad("0 or 1"))? != 0,
            "--sets" => args.sets = value.parse().map_err(|_| bad("a count"))?,
            "--runs" => args.runs = value.parse().map_err(|_| bad("a count"))?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

/// Pins the thread budget and removes every variable that would switch the
/// library's runtime, kernels or fault schedule. The library reads each of
/// them once, on first use, so this runs before anything else does.
fn scrub_environment(threads: usize) {
    std::env::set_var("CACQR_THREADS", threads.to_string());
    for var in ["CACQR_RUNTIME", "CACQR_BACKEND", "CACQR_FAULTS", "CACQR_NO_SIMD"] {
        std::env::remove_var(var);
    }
}

fn build(name: &str, seed: u64) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "tall_skinny_1d" => Box::new(factor::FactorWorkload::tall_skinny_1d(seed)?),
        "square_ca_3d" => Box::new(factor::FactorWorkload::square_ca_3d(seed)?),
        "service_small_panels" => Box::new(service::ServiceWorkload::setup(seed)?),
        _ => Box::new(stream::StreamWorkload::setup(seed)?),
    })
}

/// One run of one workload in this process.
fn run_workload(name: &str, args: &Args) -> Result<ExitCode, String> {
    let threads = WORKLOADS.iter().find(|(n, _)| *n == name).map_or(1, |(_, t)| *t);
    scrub_environment(threads);
    println!(
        "# {name}  seed {}  trace {}  CACQR_THREADS {threads}  cores {}",
        args.seed,
        args.trace as u8,
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    if args.trace {
        return traced_run(name, args);
    }

    // Set-up is timed several times and its median reported, so that work a
    // later change moves into set-up shows against less noise; each instance
    // is torn down, untimed, before the next is built (two worker pools must
    // not share the thread budget), and the last one is measured.
    let mut setup_s = Vec::new();
    let mut workload = None;
    for _ in 0..SETUPS {
        drop(workload.take());
        let t = Instant::now();
        workload = Some(build(name, args.seed)?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut workload = workload.expect("SETUPS is at least one");
    let mut run = Run::new(None);
    let wall_s = measure(workload.as_mut(), args.seconds, &mut run);
    workload.finish(&mut run);

    let mut metrics = Metrics::default();
    metrics.set("setup_s", stats::median(&setup_s));
    metrics.set("ops_per_s", run.latencies.len() as f64 / wall_s);
    metrics.set("op_p50_s", stats::quantile(&run.latencies, 0.5));
    metrics.set("op_p90_s", stats::quantile(&run.latencies, 0.9));
    for line in workload.describe() {
        println!("{line}");
    }
    println!(
        "measured               {} ops in {wall_s:.3} s (whole rounds of {}; the count varies with the machine's speed)",
        run.latencies.len(),
        workload.round()
    );
    println!("set-ups                {setup_s:.4?} s");
    for (metric, unit) in END_TO_END {
        println!("{metric:<22} {:.6e} {unit}", metrics.get(metric));
    }
    Ok(report_result(END_TO_END, &metrics, &run))
}

/// Prints the first failure, if any, then the result line.
fn report_result(table: &[(&'static str, &str)], metrics: &Metrics, run: &Run) -> ExitCode {
    if let Some(why) = &run.first_failure {
        println!("FAILED ops: {} — first: {why}", run.failed);
    }
    println!("{}", result_line(table, metrics, run.latencies.len(), run.failed));
    if run.failed == 0 && metrics.all_finite() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The traced run: rounds alternately untraced and traced for half the run
/// length (their p50 ratio is the tracing overhead, and alternating keeps
/// machine drift out of it), then the staged replay at the headline shape
/// and the fixed per-layer suite.
fn traced_run(name: &str, args: &Args) -> Result<ExitCode, String> {
    let mut workload = build(name, args.seed)?;
    let (mut plain, mut traced) = (Run::new(None), Run::new(Some(trace::Tracer::new())));
    process::arm();
    let cpu_before = process::cpu_seconds();
    let start = Instant::now();
    loop {
        // Zero seconds: one round each.
        measure(workload.as_mut(), 0.0, &mut plain);
        measure(workload.as_mut(), 0.0, &mut traced);
        if start.elapsed().as_secs_f64() >= args.seconds / 2.0 {
            break;
        }
    }
    let cpu_s = process::cpu_seconds() - cpu_before;
    let heap = process::disarm();
    workload.finish(&mut traced);
    let mut tracer = traced.tracer.take().expect("the traced rounds carry a tracer");
    let ops = (plain.latencies.len() + traced.latencies.len()) as f64;

    let mut metrics = Metrics::default();
    metrics.set(
        "trace.overhead_frac",
        stats::median(&traced.latencies) / stats::median(&plain.latencies) - 1.0,
    );
    metrics.set("proc.cpu_s_per_op", cpu_s / ops);
    metrics.set("proc.heap_allocs_per_op", heap.allocs as f64 / ops);
    metrics.set("proc.heap_peak_mib", heap.peak_mib);
    // Described first: the service workload's layer metrics include two
    // reference runs that would otherwise show in its exact counts.
    let described = workload.describe();
    workload.layer_metrics(&tracer, &mut metrics)?;
    traced.absorb(plain);

    let headline = workload.headline();
    let inputs = workload.headline_inputs();
    // The workload goes before the suite runs: an idle worker pool would
    // still hold its share of the kernel-thread budget.
    drop(workload);
    replay::staged_replay(&headline, &inputs, &mut tracer, &mut metrics)?;
    replay::baselines(&headline, &inputs[0], &mut metrics)?;
    let mut kernel_table = Vec::new();
    layers::layer_suite(args.seed, &mut metrics, &mut kernel_table)?;

    // The closed-form cost on the α-β-γ measured in this run, and how far
    // the measured SPMD region is from it.
    let measured = Machine {
        alpha: metrics.get("simgrid.alpha_s"),
        beta: metrics.get("simgrid.beta_s_per_word"),
        gamma: 1e-9 / metrics.get("dense.probe_gflops"),
    };
    let predicted_s = replay::predicted_cost(&headline).time(&measured);
    metrics.set("costmodel.predicted_s", predicted_s);
    metrics.set("costmodel.residual", metrics.get("cacqr.spmd_s") / predicted_s);
    metrics.set(
        "baseline.cqr2_speedup",
        metrics.get("baseline.pgeqrf_op_s") / metrics.get("cacqr.factor_s"),
    );
    metrics.set("proc.peak_rss_mib", process::peak_rss_mib());

    let path = std::path::PathBuf::from(format!("bench/benchmark/out/trace-{name}.json"));
    tracer
        .write_json(&path, name, args.seed)
        .map_err(|e| format!("{}: {e}", path.display()))?;

    for line in described.iter().chain(&kernel_table) {
        println!("{line}");
    }
    let self_times = tracer.self_time_by_layer();
    println!(
        "self time by layer     {self_times:.4?} s; sum {:.4} s of {:.4} s in root spans; spans in {}",
        self_times.values().sum::<f64>(),
        tracer.root_seconds(),
        path.display()
    );
    for (metric, unit) in PER_LAYER {
        println!("{metric:<32} {:.6e} {unit}", metrics.get(metric));
    }
    Ok(report_result(PER_LAYER, &metrics, &traced))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(why) => {
            eprintln!("benchmark: {why}");
            return ExitCode::from(2);
        }
    };
    let outcome = match &args.workload {
        Some(name) => run_workload(name, &args),
        None => sets::run_sets(&args),
    };
    outcome.unwrap_or_else(|why| {
        eprintln!("benchmark: {why}");
        ExitCode::FAILURE
    })
}
